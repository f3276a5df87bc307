#!/usr/bin/env python
"""Diff the simulated I/O numbers of two run_all.py result directories.

Usage::

    python benchmarks/compare_io.py results_a results_b

Compares only the *deterministic* fields of each ``BENCH_<name>.json``
(x, mean_reads, mean_reads_by_tag, num_queries, mean_result_size) — the
quantities the paper's cost model defines, which must be bit-identical
across ``--jobs`` counts and with the decoded cache on or off.
Wall-clock and cache hit-rate fields legitimately differ and are
ignored.  Exits nonzero, listing every divergence, if the directories
disagree.
"""

import json
import sys
from pathlib import Path

#: Per-point fields the I/O model fully determines.
DETERMINISTIC_FIELDS = (
    "x",
    "mean_reads",
    "num_queries",
    "mean_result_size",
    "mean_reads_by_tag",
)


def _io_view(payload: dict) -> dict:
    """Strip a BENCH json down to its deterministic I/O content."""
    return {
        name: [
            {field: point[field] for field in DETERMINISTIC_FIELDS}
            for point in points
        ]
        for name, points in payload["series"].items()
    }


#: BENCH_summary.json keys that identify the execution protocol.  Reads
#: are only comparable between runs with the same protocol: a batched run
#: (batch > 1) or a block join run (join_block > 1) legally reads fewer
#: pages.  Older summaries also carry a ``kernel`` key from when a
#: second kernel existed; it is ignored like any other key outside this
#: tuple.  ``mode`` separates measurement-protocol runs
#: ("measure", the only mode goldens are recorded under) from
#: serving-mode runs, whose reads depend on arrival history and are
#: never golden-comparable (docs/serving.md).  ``backend`` names the
#: storage backend under the disk: simulated I/O counts are
#: backend-independent by construction, but committed goldens bind to
#: the ``simulated`` backend only, so a cross-backend diff is refused
#: rather than quietly blessed (docs/storage-backends.md).  ``shards``
#: and ``transport`` declare the scatter-gather protocol
#: (docs/sharding.md): reads from runs with different shard counts are
#: never comparable (per-shard pools and B-tree roots change the page
#: economics), so a cross-shard-count diff is refused; ``shards: 1``
#: result dirs are bit-comparable with single-node runs by
#: construction, which CI asserts through this tool.  Older result
#: dirs predate these keys; a missing key is compatible with anything.
#: ``sketch`` declares the similarity pre-filter mode
#: (docs/sketch-prefilter.md): ``"exact"`` legally reads fewer tuple
#: pages (plus some sketch pages) than ``"off"`` while answering
#: bit-identically, and ``"approx"`` changes the answers themselves —
#: so reads are only comparable within one mode and a cross-mode diff
#: is refused.
PROTOCOL_KEYS = (
    "batch", "join_block", "mode", "backend", "shards", "transport",
    "sketch",
)


def _protocol_view(results_dir: Path) -> dict:
    """The declared execution protocol of a result dir (may be empty)."""
    summary = results_dir / "BENCH_summary.json"
    if not summary.exists():
        return {}
    payload = json.loads(summary.read_text())
    return {
        key: payload[key] for key in PROTOCOL_KEYS if key in payload
    }


def compare_dirs(dir_a: Path, dir_b: Path) -> list[str]:
    """Return human-readable divergences between two result directories."""
    problems = []
    protocol_a = _protocol_view(dir_a)
    protocol_b = _protocol_view(dir_b)
    for key in PROTOCOL_KEYS:
        if (
            key in protocol_a
            and key in protocol_b
            and protocol_a[key] != protocol_b[key]
        ):
            problems.append(
                f"refusing to diff: {key} differs "
                f"({dir_a}: {protocol_a[key]!r}, {dir_b}: {protocol_b[key]!r}) "
                "— I/O numbers are only comparable under one execution "
                "protocol"
            )
    if problems:
        return problems
    files_a = {p.name for p in dir_a.glob("BENCH_*.json")}
    files_b = {p.name for p in dir_b.glob("BENCH_*.json")}
    files_a.discard("BENCH_summary.json")
    files_b.discard("BENCH_summary.json")
    for missing in sorted(files_a ^ files_b):
        where = dir_b if missing in files_a else dir_a
        problems.append(f"{missing}: missing from {where}")
    for name in sorted(files_a & files_b):
        view_a = _io_view(json.loads((dir_a / name).read_text()))
        view_b = _io_view(json.loads((dir_b / name).read_text()))
        if set(view_a) != set(view_b):
            problems.append(
                f"{name}: series differ "
                f"({sorted(set(view_a) ^ set(view_b))})"
            )
            continue
        for series in sorted(view_a):
            if view_a[series] != view_b[series]:
                problems.append(
                    f"{name} / {series}: I/O numbers diverge\n"
                    f"  {dir_a}: {view_a[series]}\n"
                    f"  {dir_b}: {view_b[series]}"
                )
    if not files_a and not files_b:
        problems.append("no BENCH_*.json files found in either directory")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    problems = compare_dirs(dir_a, dir_b)
    if problems:
        for problem in problems:
            print(f"DIVERGENCE: {problem}")
        return 1
    count = len(
        [p for p in dir_a.glob("BENCH_*.json") if p.name != "BENCH_summary.json"]
    )
    print(f"OK: simulated I/O identical across {dir_a} and {dir_b} "
          f"({count} experiment files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
