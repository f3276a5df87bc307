"""What the gated and the traced run share: child, set-up, checks, crash leg."""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import oracle
import server as bench_server
import workloads

HERE = Path(__file__).resolve().parent

#: Frames of the fresh pool each query gets under the paper protocol.
PAPER_POOL = 100

#: Share of a pass the timed warm-up sends.
WARM_SHARE = 4

_STARTED = time.perf_counter()


def log(message: str) -> None:
    elapsed = time.perf_counter() - _STARTED
    print(f"[e2e +{elapsed:5.1f}s] {message}", file=sys.stderr, flush=True)


class ServerProcess:
    """A ``server.py`` child: ready line, line commands, stop or SIGKILL."""

    def __init__(self, spec, image: Path, directory: Path, wal: Path, cpu: int) -> None:
        self.spawned = time.perf_counter()
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--image", str(image),
            "--pages", str(directory / "pages"),
            "--kind", spec.index,
            "--mode", spec.mode,
            "--pool", str(spec.pool_size or 0),
            "--wal", str(wal),
            "--cpu", str(cpu),
        ]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with {self.proc.wait()}")
        self.ready = json.loads(line)
        self.ready_after = time.perf_counter() - self.spawned
        self.port = self.ready["port"]

    def counters(self) -> dict:
        self.proc.stdin.write("metrics\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def rss_mb(self) -> float:
        return bench_server.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close_pipes()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (BrokenPipeError, OSError):
                pass


# ---------------------------------------------------------------------------
# Set-up (timed) and expectations (not timed)
# ---------------------------------------------------------------------------


def build_index(spec, relation, pages_dir: Path):
    """Build the workload's index on the mmap backend; returns it and timings."""
    from repro.invindex import ProbabilisticInvertedIndex
    from repro.pdrtree import PDRTree
    from repro.storage.backends import BackendSpec, backend_scope

    timings = {}
    with backend_scope(BackendSpec("mmap", directory=str(pages_dir))):
        started = time.perf_counter()
        if spec.index == "pdr":
            index = PDRTree(len(relation.domain))
        else:
            index = ProbabilisticInvertedIndex(len(relation.domain))
        index.build(relation)
        timings["build_s"] = time.perf_counter() - started
        started = time.perf_counter()
        if spec.sketch:
            index.build_sketch()
        timings["sketch_s"] = time.perf_counter() - started
    return index, timings


async def set_up(spec, inputs, directory: Path, cpu: int, *, keep_index: bool = False):
    """Program set-up, timed: datagen, build, save, server start, warm-up.

    Returns ``(server, timings, index)``; ``index`` is the parent-side
    build (still open) when ``keep_index``, else None.
    """
    directory.mkdir(parents=True)
    began = time.perf_counter()
    relation, _ = workloads.generate_relation(spec, inputs.seed)
    timings = {"datagen_s": time.perf_counter() - began}
    index, built = build_index(spec, relation, directory / "build-pages")
    timings.update(built)
    started = time.perf_counter()
    image = directory / "index.img"
    index.save(image)
    timings["save_s"] = time.perf_counter() - started
    if not keep_index:
        index.disk.close()
        index = None
    server = ServerProcess(spec, image, directory, directory / "index.wal", cpu)
    timings["start_s"] = server.ready_after
    started = time.perf_counter()
    conns = [await loadgen.Connection.open(server.port) for _ in range(loadgen.CONNECTIONS)]
    warm = loadgen.ClosedLoop(inputs, conns, None, loadgen.WriteLog())
    limit = max(1, len(inputs.requests) // WARM_SHARE)
    await warm.run_pass(None, limit=limit)
    for conn in conns:
        await conn.close()
    timings["warm_s"] = time.perf_counter() - started
    timings["setup_s"] = time.perf_counter() - began
    return server, timings, index


def fill_expectations(inputs, index) -> None:
    """Naive answers per distinct query, and reads under the paper protocol.

    The paper protocol (a fresh pool per query) is slow, so a serve-mode
    workload measures it on a fixed share of every stratum of the pass;
    a measure-mode workload needs it for every query, because every
    reply's ``reads`` is checked against it.
    """
    from repro.exec import ServingExecutor

    spec = inputs.spec
    executor = ServingExecutor(
        index, mode="measure", pool_size=spec.pool_size or PAPER_POOL
    )
    for request in inputs.requests:
        request.expected = oracle.naive_answer(inputs.relation, request.query)
        if request.paper_sample:
            extra = {"sketch": request.sketch} if request.sketch else {}
            request.paper_reads = executor.execute(request.query, **extra).reads


def paper_reads_per_op(inputs) -> float:
    return statistics.fmean(
        r.paper_reads for r in inputs.requests if r.paper_reads is not None
    )


# ---------------------------------------------------------------------------
# Checking replies
# ---------------------------------------------------------------------------


class Checker:
    """Counts attempts and failures; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.status_counts: dict[str, int] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def _status(self, sample, payload) -> bool:
        """Tally one reply; a reply that is not ``ok`` fails."""
        self.attempted += 1
        status = payload.get("status")
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        if status != "ok":
            detail = payload.get("reason") or payload.get("error") or ""
            self.fail(f"{sample.op} {sample.index}: {status} {detail}")
        return status == "ok"

    def check_queries(self, inputs, samples, prefix=None) -> list[dict]:
        """Verify query samples; returns the payloads found right.

        ``prefix`` is the :class:`oracle.PrefixOracle` of the writes that
        ran beside the queries, or None for a read-only index.
        """
        payloads = []
        check_reads = inputs.spec.mode == "measure"
        # The prefix oracle advances through the write log in time order.
        for sample in sorted(samples, key=lambda s: s.sent):
            payload = json.loads(sample.raw)
            if not self._status(sample, payload):
                continue
            request = inputs.requests[sample.index]
            got = oracle.reply_answer(payload)
            if prefix is not None:
                good = prefix.matches(request, got, sample.sent, sample.received)
            else:
                good = oracle.same_answer(
                    got, request.expected, top_k=oracle.is_top_k(request.query)
                )
            if not good:
                self.fail(f"query {sample.index} ({request.kind}): wrong answer")
                continue
            if check_reads and payload["reads"] != request.paper_reads:
                self.fail(
                    f"query {sample.index}: {payload['reads']} reads over the wire, "
                    f"{request.paper_reads} under the paper protocol"
                )
                continue
            payloads.append(payload)
        return payloads

    def check_writes(self, samples) -> None:
        for sample in samples:
            self._status(sample, json.loads(sample.raw))

    def check_samples(self, inputs, samples, write_log, stream) -> list[dict]:
        """Check every sample of a phase; returns the right query payloads."""
        prefix = None
        if write_log.entries:
            prefix = oracle.PrefixOracle(write_log.entries, stream.inserted)
        self.check_writes([s for s in samples if s.op != "query"])
        return self.check_queries(
            inputs, [s for s in samples if s.op == "query"], prefix
        )


# ---------------------------------------------------------------------------
# Durability leg: fixed write stream, SIGKILL, recovery in fresh processes
# ---------------------------------------------------------------------------


def live_inserts(acknowledged: list[dict], stream) -> dict:
    """``{tid: uda}`` of the inserted tuples live after ``acknowledged``."""
    live: dict = {}
    for fields in acknowledged:
        if fields["mutate"] == "insert":
            live[fields["tid"]] = stream.inserted[fields["tid"]]
        elif fields["mutate"] == "delete":
            live.pop(fields["tid"], None)
    return live


def store_amplification(inputs, directory: Path, write_log, stream) -> float:
    """(saved image + WAL bytes) / live user bytes; call with no write in flight."""
    live = live_inserts([entry[0] for entry in write_log.entries], stream)
    user_bytes = inputs.user_bytes + 8 * sum(uda.nnz for uda in live.values())
    stored = (directory / "index.img").stat().st_size + (directory / "index.wal").stat().st_size
    return stored / user_bytes


def _probe_request(inputs, stream, live: dict, tid: int, base_answers: dict):
    """A PETQ that holds inserted tuple ``tid`` iff it is live.

    Returns ``(request line, expected answer)``; the tuple's own score
    against itself is the threshold.
    """
    from repro.core.queries import EqualityThresholdQuery
    from repro.serve.protocol import encode_line, query_to_wire

    uda = stream.inserted[tid]
    query = EqualityThresholdQuery(uda, uda.equality_probability(uda) * (1.0 - 1e-6))
    if id(uda) not in base_answers:
        base_answers[id(uda)] = oracle.naive_answer(inputs.relation, query)
    expected = oracle.answer_with_live(query, base_answers[id(uda)], live)
    return encode_line({"id": tid, **query_to_wire(query)}), expected


async def _probe(conn, request, tid: int, live: dict) -> bool:
    line, expected = request
    _, _, raw = await conn.roundtrip(line)
    payload = json.loads(raw)
    if payload.get("status") != "ok":
        return False
    got = oracle.reply_answer(payload)
    present = any(match_tid == tid for match_tid, _ in got)
    return oracle.same_answer(got, expected, top_k=False) and present == (tid in live)


async def durability_leg(
    spec, inputs, server, directory: Path, stream, write_log, checker, reference,
    *, writes: int, recoveries: int,
):
    """``writes`` acknowledged writes, SIGKILL mid-stream, ``recoveries`` recoveries.

    Returns ``(write_samples, recovery)``.  Every recovery starts a fresh
    process on its own copy of image + WAL and is timed, at nominal
    speed, from its spawn to its first correct answer (``recovery_s`` is
    the fastest); the first one also probes every acknowledged insert.
    """
    from repro.wal import WriteAheadLog

    conn = await loadgen.Connection.open(server.port)
    write_samples = await loadgen.durability_stream(conn, stream, write_log, writes)
    checker.check_writes(write_samples)
    log(f"{spec.name}: {writes} durable writes acknowledged")
    await loadgen.kill_mid_stream(conn, stream, write_log, workloads.KILL_BURST, server.kill)
    await conn.close()
    log(f"{spec.name}: server killed mid-stream")
    checker.attempted += workloads.KILL_BURST

    acknowledged = [entry[0] for entry in write_log.entries if entry[2] is not None]
    records = sum(1 for fields in acknowledged if fields["mutate"] != "compact")
    # The OS cache may hold more than was promised: cut the WAL at the
    # end of the last acknowledged record.  LSNs are dense, so the count
    # of acknowledged inserts and deletes names that record.
    wal = directory / "index.wal"
    scan = WriteAheadLog(wal, fsync=False)
    offsets = scan.record_offsets()
    scan.close()
    if len(offsets) - 1 < records:
        checker.fail(
            f"WAL holds {len(offsets) - 1} records, {records} writes were acknowledged"
        )
        records = len(offsets) - 1
    with open(wal, "r+b") as handle:
        handle.truncate(offsets[records])

    # What recovery must show: every acknowledged write, nothing else.
    live = live_inserts(acknowledged, stream)
    inserted_tids = [f["tid"] for f in acknowledged if f["mutate"] == "insert"]
    recovery = {"acknowledged": len(acknowledged), "probes": len(inserted_tids), "runs": []}
    base_answers: dict = {}
    probes = [
        _probe_request(inputs, stream, live, tid, base_answers) for tid in inserted_tids
    ]
    mark = len(reference.runs_ms)
    for attempt in range(recoveries):
        recovery_dir = directory / f"recovery{attempt}"
        recovery_dir.mkdir()
        shutil.copy(directory / "index.img", recovery_dir / "index.img")
        shutil.copy(wal, recovery_dir / "index.wal")
        reference.sample(both=True)
        recovered = ServerProcess(
            spec, recovery_dir / "index.img", recovery_dir,
            recovery_dir / "index.wal", reference.server_cpu,
        )
        try:
            probe_conn = await loadgen.Connection.open(recovered.port)
            good = await _probe(probe_conn, probes[0], inserted_tids[0], live)
            first_answer = time.perf_counter()
            checker.attempted += 1
            if not good:
                checker.fail(f"after recovery: probe of tid {inserted_tids[0]} is wrong")
            if recovered.ready["records_replayed"] != records:
                checker.fail(
                    f"recovery replayed {recovered.ready['records_replayed']} records, "
                    f"{records} were acknowledged"
                )
            if attempt == 0:
                for request, tid in zip(probes[1:], inserted_tids[1:]):
                    checker.attempted += 1
                    if not await _probe(probe_conn, request, tid, live):
                        checker.fail(
                            f"after recovery: probe of tid {tid} is wrong "
                            "(acknowledged write lost?)"
                        )
            await probe_conn.close()
        finally:
            recovered.stop()
        recovery["runs"].append(
            {
                "raw_s": first_answer - recovered.spawned,
                "replay_ms": recovered.ready["replay_ms"],
                "records_replayed": recovered.ready["records_replayed"],
            }
        )
    reference.sample(both=True)
    log(f"{spec.name}: {recoveries} recoveries checked")
    # The fastest over the fastest reference run of the phase, like every
    # best-of-passes timing: a recovery is half a second of interpreter
    # start-up and page faults, and noise only adds.
    recovery["slowdown"] = reference.slowdown_since(mark)
    recovery["recovery_s"] = min(run["raw_s"] for run in recovery["runs"]) / recovery["slowdown"]
    recovery["replay_ms"] = statistics.median(run["replay_ms"] for run in recovery["runs"])
    recovery["records_replayed"] = recovery["runs"][0]["records_replayed"]
    return write_samples, recovery
