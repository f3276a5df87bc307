#!/usr/bin/env python3
"""End-to-end benchmark of the index service: one command, every metric.

Two ways to run it:

**One workload** (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload eq_cold --seed 7 --seconds 12 --trace 0

builds the workload's index on the mmap backend, starts a real
``QueryServer`` in a child process, drives it over TCP for ``--seconds``
from two closed-loop connections, checks every answer against the naive
oracle, and prints one JSON object as the last line of stdout.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (child-server counters, open-loop phase, and an in-process traced
run under bench-owned span wrappers).

**The whole set**::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7

runs all four workloads both ways (each as its own subprocess of the
line above) and prints every metric by name with its unit.
``--repeat N`` repeats the gated runs for an A/A table; ``--vary-seed``
gives repeat *i* the seed ``seed + i``; ``--scale smoke`` checks the
schema only.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program under test is not here")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import loadgen  # noqa: E402
import metrics as metric_tables  # noqa: E402
import server as bench_server  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from harness import log  # noqa: E402

RUN_SECONDS = 12

#: Set-ups timed per gated run (``setup_s`` is their median; the first
#: one's server takes the crash leg, the last one's the window) and
#: recoveries (``recovery_s`` is the fastest).
SETUPS_PER_RUN = 3
RECOVERIES_PER_RUN = 3

#: The durability leg's writes are paired in rounds of this many.
WRITE_ROUND = 20


# ---------------------------------------------------------------------------
# The gated run (--trace 0)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def no_gc():
    """The generator collects before a timed stretch, not inside it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def window_metrics(passes, durable, slowdown: float) -> tuple[dict, dict]:
    """Closed-loop figures of a window, best-of-passes at nominal speed.

    ``durable`` are the crash leg's write samples; they give the write
    latency of a workload whose window holds no writes.  Returns the
    gated values and what the generator saw, pooled and unscaled.
    """
    complete = [p for p in passes if p.complete] or passes
    queries = steady.best_of(
        (s.index, s.latency_ms) for p in complete for s in p.samples if s.op == "query"
    )
    # Writes recur at the same places of every pass (of every round of
    # the durability leg), insert and delete alternating.
    window_writes = [
        [s for s in p.samples if s.op in ("insert", "delete")] for p in complete
    ]
    if any(window_writes):
        writes = steady.best_of(
            (place, s.latency_ms) for group in window_writes for place, s in enumerate(group)
        )
    else:
        writes = steady.best_of(
            (place % WRITE_ROUND, s.latency_ms) for place, s in enumerate(durable)
        )
    pooled = [s.latency_ms for p in complete for s in p.samples if s.op == "query"]
    values = {
        "closed_rps": steady.paired_rate(complete) * slowdown,
        "closed_p50_ms": steady.percentile(queries.values(), 50) / slowdown,
        "closed_p90_ms": steady.percentile(queries.values(), 90) / slowdown,
        "write_p50_ms": steady.percentile(writes.values(), 50) / slowdown,
    }
    raw = {
        "passes": sum(p.complete for p in passes),
        "partial_passes": sum(not p.complete for p in passes),
        "samples": len(pooled),
        "write_samples": sum(map(len, window_writes)) or len(durable),
        "slowdown": slowdown,
        "rps_per_pass": [p.ops_per_second for p in complete],
        "p50_ms": steady.percentile(pooled, 50),
        "p99_ms": steady.percentile(pooled, 99),
    }
    return values, raw


async def measured_window(closed, seconds: float | None, reference):
    """The passes of one window and the slowdown the reference saw in it."""
    mark = len(reference.runs_ms)
    with no_gc():
        passes = await closed.run_window(seconds, reference.sample)
    return passes, reference.slowdown_since(mark)


async def gated_run(spec, seed: int, seconds: float, scale: str, work: Path, reference) -> dict:
    inputs = workloads.make_inputs(spec, seed)
    checker = harness.Checker()
    full = scale == "full"
    setups = []
    # The smoke scale keeps the two a run cannot do without.
    setups_wanted = SETUPS_PER_RUN if full else 2
    for attempt in range(setups_wanted):
        directory = work / f"setup{attempt}"
        with reference.bracket() as speed:
            server, timings, index = await harness.set_up(
                spec, inputs, directory, reference.server_cpu, keep_index=attempt == 0
            )
        timings["slowdown"] = speed["slowdown"]
        setups.append(timings)
        if attempt == 0:
            # Not set-up: the oracle, the paper-protocol read counts and
            # the crash leg.  It runs on this server, whose WAL is empty,
            # so that what a recovery replays does not depend on how
            # many passes a window had time for.
            try:
                harness.fill_expectations(inputs, index)
                index.disk.close()
                log(f"{spec.name}: oracle filled")
                durable, recovery = await harness.durability_leg(
                    spec, inputs, server, directory, workloads.WriteStream(inputs),
                    loadgen.WriteLog(), checker, reference,
                    writes=workloads.DURABILITY_WRITES if full else WRITE_ROUND,
                    recoveries=RECOVERIES_PER_RUN if full else 1,
                )
            finally:
                server.kill()
        elif attempt < setups_wanted - 1:
            server.stop()
    setup_s = statistics.median(t["setup_s"] / t["slowdown"] for t in setups)
    log(f"{spec.name}: set-up x{len(setups)} median {setup_s:.2f}s; protocol {server.ready['protocol']}")
    try:
        conns = [await loadgen.Connection.open(server.port) for _ in range(loadgen.CONNECTIONS)]
        stream = workloads.WriteStream(inputs)
        write_log = loadgen.WriteLog()
        closed = loadgen.ClosedLoop(inputs, conns, stream, write_log)
        # Untimed and unmeasured, but checked: every distinct request
        # (and write position) is seen once before the window opens.
        settle = await closed.run_passes(1)
        # Here, not after the window: what is stored must not depend on
        # how many passes the window had time for.
        store_amp = harness.store_amplification(inputs, directory, write_log, stream)
        log(f"{spec.name}: settled; window opens")
        passes, slowdown = await measured_window(
            closed, seconds if full else None, reference
        )
        log(f"{spec.name}: window closed after {len(passes)} passes")
        rss_mb = server.rss_mb()
        for conn in conns:
            await conn.close()
        checker.check_samples(
            inputs, [s for p in settle + passes for s in p.samples], write_log, stream
        )
        log(f"{spec.name}: replies checked")
    finally:
        server.kill()
    window, raw = window_metrics(passes, durable, slowdown)
    values = {
        "setup_s": setup_s,
        **window,
        "recovery_s": recovery["recovery_s"],
        "reads_per_op": harness.paper_reads_per_op(inputs),
        "rss_mb": rss_mb,
        "store_amp": store_amp,
    }
    detail = {
        "workload": spec.name,
        "seed": seed,
        "scale": scale,
        "protocol": server.ready["protocol"],
        "dropped_env": server.ready["dropped_env"],
        "cpus": {"generator": reference.generator_cpu, "server": reference.server_cpu},
        "window": raw,
        "setups": [
            {name: round(value, 4) for name, value in timings.items()} for timings in setups
        ],
        "recovery": recovery,
        "fail_ratio": checker.failed / max(1, checker.attempted),
        "fail_reasons": checker.reasons,
        "statuses": checker.status_counts,
    }
    return {"values": values, "detail": detail, "checker": checker}


# ---------------------------------------------------------------------------
# The traced run (--trace 1)
# ---------------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_delta(after: dict, before: dict) -> dict:
    delta = {
        name: after["metrics"].get(name, 0) - before["metrics"].get(name, 0)
        for name in after["metrics"]
    }
    for name in ("disk_reads", "disk_writes", "wal_bytes"):
        delta[name] = after[name] - before[name]
    for tag, count in after["reads_by_tag"].items():
        delta[f"tag.{tag}"] = count - before["reads_by_tag"].get(tag, 0)
    for name, count in after["server"].items():
        delta[f"server.{name}"] = count - before["server"].get(name, 0)
    return delta


def count_metrics(
    delta: dict, ok_payloads: list, *, ops: int, mutations: int,
    inserted_user_bytes: int, page_size: int, tuples: int,
) -> dict:
    """Per-layer counts and ratios from the child's counter deltas."""
    get = lambda name: delta.get(name, 0)  # noqa: E731
    results = sum(len(p["matches"]) for p in ok_payloads)
    stops = sum(count for name, count in delta.items() if name.startswith("strategy.stop."))
    verdicts = get("pdr.verdict.prune") + get("pdr.verdict.descend")
    written = get("disk_writes") * page_size + get("wal_bytes")
    requests = get("server.requests")
    return {
        "serve.batch_size_mean": ratio(get("server.coalesced"), get("server.batches")),
        "serve.shed_ratio": ratio(get("server.shed"), requests),
        "serve.timeout_ratio": ratio(get("server.timeout"), requests),
        "invindex.candidates_per_result": ratio(get("verify.random_access"), results),
        "invindex.cursor_advances_per_op": ratio(get("cursor.advance"), ops),
        "invindex.lemma1_stop_ratio": ratio(get("strategy.stop.lemma1"), stops),
        "invindex.posting_reads_per_op": ratio(get("tag.postings"), ops),
        "invindex.segment_flushes": float(get("segment.flush")),
        "pdrtree.visits_per_op": ratio(get("pdr.visit"), ops),
        "pdrtree.prune_ratio": ratio(get("pdr.verdict.prune"), verdicts),
        # Exact mode skips by bound without a ``sketch.prune`` event, so
        # the share pruned is what a probe did not go on to verify.
        "sketch.prune_ratio": (
            1.0 - ratio(get("sketch.verify"), get("sketch.probe") * tuples)
            if get("sketch.probe")
            else 0.0
        ),
        "sketch.verifies_per_op": ratio(get("sketch.verify"), ops),
        "sketch.reads_per_op": ratio(get("tag.sketch"), ops),
        "storage.pool_hit_ratio": ratio(get("pool.hit"), get("pool.hit") + get("pool.miss")),
        "storage.evictions_per_op": ratio(get("pool.evict"), ops),
        "storage.decoded_hit_ratio": ratio(
            get("decoded.hit"), get("decoded.hit") + get("decoded.miss")
        ),
        "storage.reads_per_op": ratio(sum(p["reads"] for p in ok_payloads), len(ok_payloads)),
        "storage.writes_per_op": ratio(get("disk_writes"), ops),
        "storage.write_bytes_per_user_byte": ratio(written, inserted_user_bytes),
        "storage.retries": float(get("pool.retry")),
        "storage.checksum_failures": float(get("disk.checksum_failure")),
        "wal.fsyncs_per_mutation": ratio(get("wal.append"), mutations),
        "wal.bytes_per_mutation": ratio(get("wal_bytes"), mutations),
    }


async def inprocess_pass(spec, inputs, image: Path, directory: Path, seconds, recorder):
    """One connection, closed loop, against a server in this process.

    ``seconds`` is a duration, or None for exactly one pass.  With a
    ``recorder`` the span wrappers are on for the timed part and the
    recorder is told which request is in flight.  Returns
    ``(samples, request_lines, write_log, stream)``; a sample's index
    is the query's position in the pass or the write's in the log.
    """
    from repro.serve import QueryServer, ServeConfig

    directory.mkdir(parents=True)
    local_image = directory / "index.img"
    shutil.copy(image, local_image)
    index, wal, _ = bench_server.open_index(
        spec.index, local_image, directory / "pages", directory / "index.wal"
    )
    overrides = {"mode": spec.mode}
    if spec.pool_size:
        overrides["pool_size"] = spec.pool_size
    server = QueryServer(index, config=ServeConfig(port=0, **overrides))
    await server.start()
    conn = await loadgen.Connection.open(server.address[1])
    stream = workloads.WriteStream(inputs)
    write_log = loadgen.WriteLog()
    samples, lines = [], []
    requests = inputs.requests
    wrapped = spans.Wrapped(recorder) if recorder is not None else contextlib.nullcontext()
    try:
        # Warm up with the first quarter of the pass, like a set-up does.
        for request in requests[: max(1, len(requests) // harness.WARM_SHARE)]:
            await conn.roundtrip(request.line)
        with wrapped, no_gc():
            deadline = None if seconds is None else time.perf_counter() + seconds
            one_pass = len(requests) + spec.writes_per_pass + bool(spec.compact_per_pass)
            for sequence, (op, fields, position) in enumerate(loadgen.serial_ops(inputs, stream)):
                if deadline is None and sequence == one_pass:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if op == "query":
                    line, index_of = requests[position].line, position
                else:
                    line = loadgen.mutation_line(fields, 4_000_000 + sequence)
                    index_of = len(write_log.entries)
                    entry = [fields, time.perf_counter(), None]
                    write_log.entries.append(entry)
                if recorder is not None:
                    recorder.begin_request(sequence)
                sent, received, raw = await conn.roundtrip(line)
                if op != "query":
                    entry[2] = received
                samples.append(loadgen.Sample(op, index_of, sent, received, raw))
                lines.append(line)
    finally:
        await conn.close()
        await server.stop()
        if wal is not None:
            wal.close()
        index.disk.close()
    return samples, lines, write_log, stream


def codec_ms(lines: list[bytes], samples) -> tuple[float, float, float]:
    """Direct timed calls of the wire codec on the recorded lines.

    Returns mean ms per request of ``decode_line + parse_request`` and of
    ``matches_to_wire + encode_line``, and the mean reply size in bytes.
    """
    from repro.core.results import Match, QueryResult
    from repro.serve.protocol import decode_line, encode_line, matches_to_wire, parse_request

    started = time.perf_counter()
    for line in lines:
        parse_request(decode_line(line))
    decode = (time.perf_counter() - started) / len(lines) * 1e3
    replies = []
    for sample in samples:
        payload = json.loads(sample.raw)
        result = None
        if "matches" in payload:
            result = QueryResult([Match(tid=int(t), score=s) for t, s in payload["matches"]])
        replies.append((payload, result))
    started = time.perf_counter()
    for payload, result in replies:
        if result is not None:
            payload = {**payload, "matches": matches_to_wire(result)}
        encode_line(payload)
    encode = (time.perf_counter() - started) / len(replies) * 1e3
    size = statistics.fmean(len(sample.raw) for sample in samples)
    return decode, encode, size


def span_metrics(recorder, samples, lines) -> dict:
    """Mean self ms per request by layer, from the wrapped run."""
    served = len(samples)
    per_request = lambda ns: ns / served / 1e6  # noqa: E731
    self_of = lambda name: per_request(recorder.total(spans.SELF_NS, name=name))  # noqa: E731
    calls_of = lambda name: recorder.total(spans.CALLS, name=name)  # noqa: E731
    layer_ms = {
        layer: per_request(recorder.total(spans.SELF_NS, layer=layer))
        for layer in recorder.layers()
    }
    root_ms = per_request(recorder.total(spans.ROOT_NS))
    latency_ms = statistics.fmean(s.latency_ms for s in samples)
    decode, encode, size = codec_ms(lines, samples)
    wait = latency_ms - root_ms - decode - encode
    query_requests = {i for i, s in enumerate(samples) if s.op == "query"}
    # A tuple-cache miss decodes exactly one heap record, so within
    # queries the decodes count the misses.
    gets = misses = 0
    for request, booked in recorder.per_request.items():
        if request not in query_requests:
            continue
        for (name, _, _), cell in booked.items():
            if name == "exec.tuple_cache.get":
                gets += cell[spans.CALLS]
            elif name == "storage.decode":
                misses += cell[spans.CALLS]
    values = {
        "serve.decode_ms": decode,
        "serve.encode_ms": encode,
        "serve.wait_ms": wait,
        "serve.resp_bytes_mean": size,
        "exec.execute_ms": self_of("exec.execute") + self_of("exec.execute_batch")
        + self_of("exec.tuple_cache.get") + self_of("exec.tuple_cache.clear"),
        "exec.apply_mutation_ms": self_of("exec.apply_mutation"),
        "exec.tuple_cache_hit_ratio": 1.0 - ratio(misses, gets) if gets else 0.0,
        "exec.tuple_cache_clears": float(calls_of("exec.tuple_cache.clear")),
        "invindex.execute_ms": self_of("invindex.execute"),
        "invindex.insert_ms": self_of("invindex.insert"),
        "invindex.delete_ms": self_of("invindex.delete"),
        "invindex.compact_ms": self_of("invindex.compact"),
        "core.kernels_ms": self_of("core.kernels"),
        "core.divergence_ms": self_of("core.divergence"),
        "pdrtree.execute_ms": self_of("pdrtree.execute"),
        "sketch.bounds_ms": self_of("sketch.bounds"),
        "btree.scan_ms": self_of("btree.scan"),
        "btree.insert_ms": self_of("btree.insert"),
        "storage.fetch_ms": self_of("storage.fetch"),
        "storage.read_page_ms": self_of("storage.read_page") + self_of("storage.write_page"),
        "storage.heap_ms": self_of("storage.heap") + self_of("storage.decode"),
        "wal.append_ms": self_of("wal.append"),
        "harness.layer_sum_ratio": ratio(
            wait + decode + encode + sum(layer_ms.values()), latency_ms
        ),
    }
    ranked = sorted(layer_ms.items(), key=lambda item: -item[1])
    return {
        "values": values,
        "layer_ms": layer_ms,
        "latency_ms": latency_ms,
        "top_layers": [name for name, _ in ranked[:3]],
    }


async def rate_ladder(inputs, server, seed: int, checker, write_log, stream) -> list[dict]:
    """Three committed open-loop rates; which of them the server sustains."""
    ladder = []
    for step, rate in enumerate(workloads.LADDER_RATES):
        schedule = workloads.poisson_schedule(rate, workloads.LADDER_ARRIVALS, seed + 1 + step)
        result = await loadgen.open_loop(inputs, server.port, schedule)
        checker.check_samples(inputs, result.samples, write_log, stream)
        p95 = steady.percentile([s.latency_ms for s in result.samples], 95)
        ladder.append(
            {
                "rate": rate,
                "p95_ms": p95,
                "backlog_at_end": result.backlog_at_end,
                "late_p99_ms": steady.percentile(result.lateness_ms, 99),
                "ok": p95 <= workloads.LADDER_P95_LIMIT_MS
                and result.backlog_at_end <= workloads.LADDER_MAX_BACKLOG,
            }
        )
    return ladder


async def traced_run(spec, seed: int, seconds: float, scale: str, work: Path, reference) -> dict:
    inputs = workloads.make_inputs(spec, seed)
    checker = harness.Checker()
    full = scale == "full"
    directory = work / "setup0"
    server, timings, index = await harness.set_up(
        spec, inputs, directory, reference.server_cpu, keep_index=True
    )
    harness.fill_expectations(inputs, index)
    page_size = index.disk.page_size
    index.disk.close()
    # The window is shared out: child closed loop, child open loop,
    # in-process plain, in-process wrapped.
    share = seconds / 4.0
    values: dict[str, float] = {}
    ladder = []
    try:
        # 1. Two-connection closed loop on the child: the counts.
        conns = [await loadgen.Connection.open(server.port) for _ in range(loadgen.CONNECTIONS)]
        stream = workloads.WriteStream(inputs)
        write_log = loadgen.WriteLog()
        closed = loadgen.ClosedLoop(inputs, conns, stream, write_log)
        settle = await closed.run_passes(1)
        before = server.counters()
        passes, _ = await measured_window(closed, share if full else None, reference)
        after = server.counters()
        for conn in conns:
            await conn.close()
        checker.check_samples(inputs, [s for p in settle for s in p.samples], write_log, stream)
        window = [s for p in passes for s in p.samples]
        ok_payloads = checker.check_samples(inputs, window, write_log, stream)
        queries = [s for s in window if s.op == "query"]
        mutations = [s for s in window if s.op != "query"]
        inserted_bytes = 8 * sum(
            len(write_log.entries[s.index][0]["items"]) for s in mutations if s.op == "insert"
        )
        values.update(
            count_metrics(
                counter_delta(after, before),
                ok_payloads,
                ops=len(window),
                mutations=sum(1 for s in mutations if s.op != "compact"),
                inserted_user_bytes=inserted_bytes,
                page_size=page_size,
                tuples=spec.num_tuples,
            )
        )
        values["harness.samples"] = float(len(queries))
        query_ms = [s.latency_ms for s in queries]
        values["serve.closed_p50_raw_ms"] = steady.percentile(query_ms, 50)
        values["serve.closed_p99_raw_ms"] = steady.percentile(query_ms, 99)
        # The worst query in flight while a compaction ran.
        values["serve.stall_max_ms"] = max(
            (
                query.latency_ms
                for compaction in mutations
                if compaction.op == "compact"
                for query in queries
                if query.sent < compaction.received and query.received > compaction.sent
            ),
            default=0.0,
        )

        # 2. Open loop: seeded Poisson arrivals at the committed rate,
        # cut at this phase's share of the window.
        schedule = workloads.poisson_schedule(
            workloads.OPEN_RATE[spec.name], 600 if full else 60, seed
        )
        opened = await loadgen.open_loop(inputs, server.port, schedule, share if full else None)
        checker.check_samples(inputs, opened.samples, write_log, stream)
        open_ms = [s.latency_ms for s in opened.samples]
        values["serve.open_p50_ms"] = steady.percentile(open_ms, 50)
        values["serve.open_p99_ms"] = steady.percentile(open_ms, 99)
        values["serve.open_late_p99_ms"] = steady.percentile(opened.lateness_ms, 99)

        # 3. Rate ladder, a diagnostic on eq_warm only (0 = not run).
        values["serve.max_rate_ok_rps"] = 0.0
        if spec.name == "eq_warm" and full:
            ladder = await rate_ladder(inputs, server, seed, checker, write_log, stream)
            values["serve.max_rate_ok_rps"] = max(
                (step["rate"] for step in ladder if step["ok"]), default=0.0
            )

        # 4. Durability leg: write tail, replay time and records replayed.
        durable, recovery = await harness.durability_leg(
            spec, inputs, server, directory, stream, write_log, checker, reference,
            writes=workloads.DURABILITY_WRITES if full else WRITE_ROUND, recoveries=1,
        )
        write_ms = [s.latency_ms for s in mutations if s.op != "compact"] or [
            s.latency_ms for s in durable
        ]
        values["serve.write_p90_raw_ms"] = steady.percentile(write_ms, 90)
        values["wal.replay_ms"] = recovery["replay_ms"]
        values["wal.records_replayed"] = float(recovery["records_replayed"])
    finally:
        server.kill()

    # 5. In-process, one connection: plain, then under the span wrappers.
    image = directory / "index.img"
    duration = share if full else None
    plain, _, plain_log, plain_stream = await inprocess_pass(
        spec, inputs, image, work / "plain", duration, None
    )
    recorder = spans.SpanRecorder()
    wrapped, lines, wrapped_log, wrapped_stream = await inprocess_pass(
        spec, inputs, image, work / "wrapped", duration, recorder
    )
    checker.check_samples(inputs, plain, plain_log, plain_stream)
    checker.check_samples(inputs, wrapped, wrapped_log, wrapped_stream)
    traced = span_metrics(recorder, wrapped, lines)
    values.update(traced["values"])
    values["harness.trace_overhead_ratio"] = ratio(
        steady.percentile([s.latency_ms for s in wrapped], 50),
        steady.percentile([s.latency_ms for s in plain], 50),
    )
    values["harness.slowdown"] = reference.slowdown_since(0)
    for name in ("datagen_s", "build_s", "sketch_s", "save_s", "start_s", "warm_s"):
        values[f"setup.{name}"] = timings[name]

    trace_path = HERE / "results" / f"trace_{spec.name}.json"
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(
        json.dumps(
            {"workload": spec.name, "seed": seed, "requests": len(wrapped), **recorder.to_json()}
        )
    )
    detail = {
        "workload": spec.name,
        "seed": seed,
        "scale": scale,
        "protocol": server.ready["protocol"],
        "layer_ms": traced["layer_ms"],
        "traced_latency_ms": traced["latency_ms"],
        "top_layers": traced["top_layers"],
        "ladder": ladder,
        "samples": {
            "closed": len(queries),
            "open": len(open_ms),
            "traced_plain": len(plain),
            "traced_wrapped": len(wrapped),
        },
        "fail_ratio": checker.failed / max(1, checker.attempted),
        "fail_reasons": checker.reasons,
    }
    return {"values": values, "detail": detail, "checker": checker}


# ---------------------------------------------------------------------------
# One workload (the contract's command)
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    spec = workloads.scaled(workloads.SPECS[args.workload], args.scale)
    work = HERE / ".work" / f"{os.getpid()}-{spec.name}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # The plan is read before this process narrows itself to one CPU.
    reference = steady.Reference(*steady.cpu_plan())
    os.sched_setaffinity(0, {reference.generator_cpu})
    try:
        runner = traced_run if args.trace else gated_run
        outcome = asyncio.run(
            runner(spec, args.seed, args.seconds, args.scale, work, reference)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checker = outcome["checker"]
    names = metric_tables.PER_LAYER_NAMES if args.trace else metric_tables.END_TO_END_NAMES
    values = outcome["values"]
    broken = [name for name in names if not math.isfinite(values.get(name, math.nan))]
    if broken:
        checker.fail(f"metrics missing or not finite: {broken}")
    correct = checker.failed == 0
    detail = outcome["detail"]
    detail["comparable"] = args.scale == "full"
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, checker.attempted),
                "failed": checker.failed,
                "metrics": {
                    name: {
                        "value": 0.0 if name in broken else values[name],
                        "unit": metric_tables.UNITS[name],
                    }
                    for name in names
                },
            }
        )
    )
    for reason in checker.reasons:
        log(f"FAILED: {reason}")
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The whole set (report mode)
# ---------------------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: int, trace: int, scale: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    result["exit_code"] = done.returncode
    return result


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the driver computes them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def report(args) -> int:
    started = time.perf_counter()
    names = args.workloads or list(workloads.WORKLOAD_NAMES)
    gated: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    exit_code = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat if args.vary_seed else args.seed
        for name in names:
            log(f"gated run {repeat + 1}/{args.repeat}: {name} seed {seed}")
            result = run_child(name, seed, args.seconds, 0, args.scale)
            gated[name].append(result)
            exit_code |= result["exit_code"]
    if not args.no_traced:
        for name in names:
            log(f"traced run: {name} seed {args.seed}")
            traced[name] = run_child(name, args.seed, args.seconds, 1, args.scale)
            exit_code |= traced[name]["exit_code"]

    out = {
        "seed": args.seed,
        "scale": args.scale,
        "comparable": args.scale == "full",
        "run_seconds": args.seconds,
        "repeat": args.repeat,
        "vary_seed": args.vary_seed,
        "workloads": {},
    }
    print(f"\n== end-to-end metrics (seed {args.seed}, {args.seconds}s window, scale {args.scale}) ==")
    for name in names:
        runs = gated[name]
        first = runs[0]["detail"]
        entry = {
            "protocol": first["protocol"],
            "window": first["window"],
            "fail_ratio": max(r["detail"]["fail_ratio"] for r in runs),
            "end_to_end": {},
        }
        window = first["window"]
        print(
            f"\n[{name}] protocol={first['protocol']} passes={window['passes']} "
            f"samples={window['samples']} write_samples={window['write_samples']} "
            f"slowdown={window['slowdown']:.3f} fail_ratio={entry['fail_ratio']:.4f}"
        )
        for metric in metric_tables.END_TO_END_NAMES:
            series = [r["metrics"][metric]["value"] for r in runs]
            median, q1, q3, spread = quartile_spread(series)
            bound = metric_tables.BOUNDS[metric]
            unit = metric_tables.UNITS[metric]
            row = {"unit": unit, "median": median, "bound": bound}
            text = f"  {metric:<16} {median:>12.4f} {unit:<6}"
            if len(series) > 1:
                row.update(q1=q1, q3=q3, spread=spread, values=series, fits=spread <= bound)
                verdict = "fits" if spread <= bound else "EXCEEDS"
                text += f" q1={q1:.4f} q3={q3:.4f} spread={spread:.3f} bound={bound:.2f} {verdict}"
            entry["end_to_end"][metric] = row
            print(text)
        out["workloads"][name] = entry
    if traced:
        print("\n== per-layer metrics (traced run; times are mean self ms per request) ==")
        for name in names:
            result = traced[name]
            detail = result["detail"]
            entry = out["workloads"][name]
            entry["per_layer"] = {
                metric: {
                    "value": result["metrics"][metric]["value"],
                    "unit": metric_tables.UNITS[metric],
                }
                for metric in metric_tables.PER_LAYER_NAMES
            }
            entry["layer_ms"] = detail["layer_ms"]
            entry["top_layers"] = detail["top_layers"]
            entry["traced_samples"] = detail["samples"]
            entry["ladder"] = detail["ladder"]
            entry["fail_ratio"] = max(entry["fail_ratio"], detail["fail_ratio"])
            print(f"\n[{name}] samples={detail['samples']} top layers by self time: {detail['top_layers']}")
            for metric in metric_tables.PER_LAYER_NAMES:
                value = result["metrics"][metric]["value"]
                print(f"  {metric:<36} {value:>14.4f} {metric_tables.UNITS[metric]}")
    out["elapsed_s"] = time.perf_counter() - started
    if args.scale == "smoke":
        problems = smoke_problems(out, traced)
        for problem in problems:
            print(f"SMOKE: {problem}")
        exit_code |= bool(problems)
    if args.output:
        Path(args.output).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"\nelapsed {out['elapsed_s']:.1f}s; exit {exit_code}")
    return exit_code


def smoke_problems(out: dict, traced: dict) -> list[str]:
    """The smoke scale asserts the schema, never a number."""
    problems = []
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    if committed != metric_tables.benchmark_json(workloads.SPECS, RUN_SECONDS):
        problems.append("BENCHMARK.json differs from metrics.py / workloads.py")
    for name, entry in out["workloads"].items():
        if set(entry["protocol"]) != {"kernel", "backend", "mode", "sketch"}:
            problems.append(f"{name}: protocol keys not recorded")
        for metric, row in entry["end_to_end"].items():
            if not math.isfinite(row["median"]) or row["median"] == 0:
                problems.append(f"{name}: {metric} is {row['median']}")
        for metric in metric_tables.PER_LAYER_NAMES:
            if metric not in entry.get("per_layer", {}):
                problems.append(f"{name}: {metric} missing")
        if traced:
            layer_sum = entry["per_layer"]["harness.layer_sum_ratio"]["value"]
            if not 0.9 <= layer_sum <= 1.1:
                problems.append(f"{name}: layer_sum_ratio {layer_sum:.3f} outside [0.9, 1.1]")
        if entry["fail_ratio"]:
            problems.append(f"{name}: fail_ratio {entry['fail_ratio']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1, help="gated sets to run (A/A)")
    parser.add_argument("--vary-seed", action="store_true", help="repeat i runs seed+i")
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--no-traced", action="store_true", help="skip the traced runs")
    parser.add_argument("--output", help="write the report as JSON here")
    args = parser.parse_args(argv)
    bench_server.clear_repro_env()
    if args.workload:
        return run_one(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
