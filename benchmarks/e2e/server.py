"""The benchmark's own server entry point (run as a child process).

Loads a saved index image onto the **mmap** backend, attaches a
write-ahead log (fsync on) when asked, starts a real
:class:`repro.serve.QueryServer` on an ephemeral port and prints one
JSON ``ready`` line.  It then obeys line commands on stdin:

``metrics``
    print one JSON line: the process-global ``METRICS`` snapshot, disk
    counters, the server's own counters and the WAL size;
``stop``
    stop the server, close the disk and exit 0.

The process pins itself to the CPU it is given (the load generator
keeps another, see ``steady.py``).  Every ambient ``REPRO_*`` variable is
removed before :mod:`repro` is imported, and the resolved protocol keys (kernel, backend, mode,
sketch) are part of the ``ready`` line, so a stray knob cannot move a
number unseen.  The tracer stays off.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def clear_repro_env() -> list[str]:
    """Drop every ``REPRO_*`` variable; returns the names dropped."""
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    return dropped


def open_index(kind: str, image: Path, pages_dir: Path, wal_path: Path | None):
    """Load ``image`` onto mmap pages under ``pages_dir``; attach the WAL.

    Returns ``(index, wal, info)``; ``info`` times the load and the
    replay and counts the records replayed (LSNs are dense, so the
    count is the LSN advance).
    """
    from repro.invindex import ProbabilisticInvertedIndex
    from repro.pdrtree import PDRTree
    from repro.storage.backends import BackendSpec, set_active_backend
    from repro.wal import WriteAheadLog

    set_active_backend(BackendSpec("mmap", directory=str(pages_dir)))
    loader = PDRTree if kind == "pdr" else ProbabilisticInvertedIndex
    started = time.perf_counter()
    index = loader.load(image)
    info = {"load_s": time.perf_counter() - started}
    wal = None
    if wal_path is not None:
        before = index.wal_lsn
        started = time.perf_counter()
        wal = WriteAheadLog(wal_path, fsync=True)
        index.attach_wal(wal)
        info["replay_ms"] = (time.perf_counter() - started) * 1e3
        info["records_replayed"] = index.wal_lsn - before
    return index, wal, info


def protocol_keys(index, mode: str) -> dict:
    from repro.core.kernels import kernel_mode
    from repro.sketch import resolve_sketch

    return {
        "kernel": kernel_mode(),
        "backend": index.disk.backend.name,
        "mode": mode,
        "sketch": resolve_sketch(None),
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def counters_snapshot(server, wal_path: Path | None) -> dict:
    """Every count the per-layer table reads, at one instant."""
    from repro.obs.metrics import METRICS

    index = server.executor.index
    return {
        "metrics": METRICS.snapshot(),
        "disk_reads": index.disk.stats.reads,
        "disk_writes": index.disk.stats.writes,
        "reads_by_tag": index.disk.snapshot_tags(),
        "server": dict(server.counters),
        "wal_bytes": wal_path.stat().st_size if wal_path is not None else 0,
    }


async def serve(args) -> None:
    from repro.serve import QueryServer, ServeConfig

    wal_path = Path(args.wal) if args.wal else None
    index, wal, info = open_index(
        args.kind, Path(args.image), Path(args.pages), wal_path
    )
    overrides = {"mode": args.mode}
    if args.pool:
        overrides["pool_size"] = args.pool
    config = ServeConfig(port=0, **overrides)
    server = QueryServer(index, config=config)
    await server.start()
    ready = {
        "ready": True,
        "port": server.address[1],
        "pid": os.getpid(),
        "protocol": protocol_keys(index, config.mode),
        "dropped_env": args.dropped_env,
        **info,
    }
    print(json.dumps(ready), flush=True)
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command == "metrics":
                print(json.dumps(counters_snapshot(server, wal_path)), flush=True)
            elif command in ("stop", ""):
                break
    finally:
        await server.stop()
        if wal is not None:
            wal.close()
        index.disk.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--image", required=True)
    parser.add_argument("--pages", required=True, help="directory for mmap page files")
    parser.add_argument("--kind", choices=("inverted", "pdr"), required=True)
    parser.add_argument("--mode", choices=("serve", "measure"), default="serve")
    parser.add_argument("--pool", type=int, default=0)
    parser.add_argument("--wal", default="")
    parser.add_argument("--cpu", type=int, required=True, help="CPU to run on")
    args = parser.parse_args(argv)
    # Before numpy is imported: threads started later inherit the CPU.
    os.sched_setaffinity(0, {args.cpu})
    args.dropped_env = clear_repro_env()
    sys.path.insert(0, str(SRC))
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
