"""Process-pool parallel experiment runner.

Every measured query already runs against its own fresh buffer pool
(:func:`repro.bench.harness.measure_query`) over a deterministically
seeded dataset, so whole experiments are embarrassingly parallel: fanning
them out across worker processes changes wall-clock only, never the
simulated I/O counts.  Determinism is preserved by construction —

* each experiment is self-contained (its own disk, indexes, and seeded
  workload; nothing is shared across experiments but read-only caches),
* workers receive the experiment *name* and rebuild everything from the
  same seeds, and
* results are merged in submission order, so the output is byte-identical
  for any ``--jobs`` value.

``--jobs 1`` (or ``REPRO_JOBS=1``) runs inline in this process, which
also lets consecutive experiments share the module-level dataset/index
caches of :mod:`repro.bench.experiments` — the sequential fast path.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor

from repro.bench.experiments import ALL_EXPERIMENTS, ExperimentScale
from repro.bench.harness import ExperimentResult
from repro.core.config import parse_int_knob, read_env_int
from repro.core.exceptions import QueryError
from repro.exec import ExecContext
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import BenchCollector, MemorySink, Tracer

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count from the argument, env, or CPU count.

    ``None`` falls back to ``REPRO_JOBS``; an unset/``auto``/``0`` value
    means one worker per CPU.  The result is always >= 1.  A malformed
    ``REPRO_JOBS`` raises a :class:`~repro.core.exceptions.ConfigError`
    naming the variable (see :mod:`repro.core.config`).
    """
    if jobs is None:
        value = read_env_int(JOBS_ENV, minimum=0, special={"auto": 0})
        jobs = 0 if value is None else value
    else:
        jobs = parse_int_knob(jobs, "jobs", minimum=0)
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _run_one(
    name: str,
    scale: ExperimentScale,
    ctx: ExecContext,
    trace: bool = False,
) -> tuple[ExperimentResult, float, list[str] | None, dict[str, int]]:
    """Run one experiment by name.

    Returns ``(result, elapsed_seconds, trace_lines, metrics_snapshot)``.
    ``trace_lines`` is the experiment's canonical JSONL trace (``None``
    when ``trace`` is false); ``metrics_snapshot`` is the measurement-
    scoped counter delta collected by the installed
    :class:`~repro.obs.trace.BenchCollector`.

    Module-level so worker processes can unpickle it; the experiment
    callable itself is looked up in the worker, keeping the payload to a
    name plus the (frozen, picklable) scale and execution context.  The
    context is passed *by value* rather than re-read from the
    environment so workers run under identical settings (and inject
    identical fault sequences) regardless of fork/spawn semantics; it is
    scoped so inline runs don't leak it into the caller.
    The collector's tracer is activated only around measured queries (see
    :func:`repro.bench.harness.measure_query`), so the trace — like the
    metrics — is byte-identical whether the experiment ran inline against
    warm per-process caches or in a cold worker.  The experiment
    begin/end markers deliberately carry no timing fields.
    """
    collector = BenchCollector(Tracer(MemorySink()) if trace else None)
    with ctx.scope(), _trace.bench_collection(collector):
        if collector.tracer is not None:
            collector.tracer.event("experiment.begin", name=name)
        started = time.perf_counter()
        result = ALL_EXPERIMENTS[name](scale)
        elapsed = time.perf_counter() - started
        if collector.tracer is not None:
            collector.tracer.event("experiment.end", name=name)
    lines = (
        collector.tracer.sink.jsonl_lines()
        if collector.tracer is not None
        else None
    )
    return result, elapsed, lines, collector.metrics.snapshot()


def run_experiments(
    names: list[str],
    scale: ExperimentScale,
    jobs: int | None = None,
    trace_path=None,
    metrics: MetricsRegistry | None = None,
    batch: int | None = None,
    join_block: int | None = None,
) -> Iterator[tuple[str, ExperimentResult, float]]:
    """Run experiments, yielding ``(name, result, elapsed)`` per experiment.

    Results are always yielded in the order of ``names`` regardless of
    worker completion order, so any downstream report is deterministic.
    ``elapsed`` is the experiment's own wall-clock (inside its worker),
    not the end-to-end latency.

    ``trace_path`` enables measurement-scoped tracing: each experiment's
    JSONL records are appended to the file in submission order, making
    the file byte-identical for any ``jobs`` value.  ``metrics``, when
    given, accumulates every experiment's measurement-scoped counter
    snapshot (a caller-owned registry — the workers' process-global
    counters are not otherwise visible to this process).
    """
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        raise QueryError(f"unknown experiment(s): {', '.join(unknown)}")
    jobs = resolve_jobs(jobs)
    # Resolve once; ship the same settings to every worker by value.
    ctx = ExecContext.capture(batch=batch, join_block=join_block)
    trace = trace_path is not None
    trace_file = open(trace_path, "w", encoding="utf-8") if trace else None

    def absorb(lines: list[str] | None, snapshot: dict[str, int]) -> None:
        if trace_file is not None and lines is not None:
            trace_file.writelines(line + "\n" for line in lines)
        if metrics is not None:
            metrics.merge(snapshot)

    try:
        if jobs == 1 or len(names) <= 1:
            for name in names:
                result, elapsed, lines, snapshot = _run_one(
                    name, scale, ctx, trace
                )
                absorb(lines, snapshot)
                yield name, result, elapsed
            return
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(names))
        ) as executor:
            futures = [
                executor.submit(_run_one, name, scale, ctx, trace)
                for name in names
            ]
            for name, future in zip(names, futures):
                result, elapsed, lines, snapshot = future.result()
                absorb(lines, snapshot)
                yield name, result, elapsed
    finally:
        if trace_file is not None:
            trace_file.close()
