#!/usr/bin/env python
"""Run every experiment at a chosen scale and save tables + JSON.

Usage::

    python benchmarks/run_all.py [results_dir] [--scale quick|default|paper]
                                 [--jobs N] [--experiments fig4 fig10 ...]

Experiments fan out across ``--jobs`` worker processes (default: the
``REPRO_JOBS`` environment variable, else one per CPU); measured I/O is
bit-identical for every jobs count, so parallelism is purely a wall-clock
lever.  For each experiment the driver writes:

* ``<name>.txt`` — the aligned series table (the paper figure as rows);
* ``BENCH_<name>.json`` — machine-readable series (per-point mean I/O,
  per-tag breakdown, cache hit rates) plus the experiment's wall-clock;

and a run-level ``BENCH_summary.json`` with the total wall-clock and
configuration, so the perf trajectory is tracked across PRs.

``REPRO_SCALE`` is honoured when ``--scale`` is omitted;
``pytest benchmarks/ --benchmark-only`` runs the same experiments through
pytest-benchmark instead.
"""

import argparse
import json
import os
import time
from pathlib import Path

from repro.bench import (
    ALL_EXPERIMENTS,
    ExperimentScale,
    format_result,
    resolve_jobs,
    result_to_dict,
    run_experiments,
)
from repro.exec import ExecContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE_ENV, resolve_trace_path
from repro.storage.backends import (
    BACKEND_ENV,
    BACKEND_NAMES,
    set_active_backend,
)
from repro.storage.buffer import DECODED_CACHE_ENV

_SCALES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale.default,
    "paper": ExperimentScale.paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the full experiment suite and save tables + JSON."
    )
    parser.add_argument(
        "results_dir",
        nargs="?",
        type=Path,
        default=Path("benchmarks/results"),
        help="output directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default=None,
        help="dataset/workload scale (default: REPRO_SCALE or quick)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or the CPU count; "
        "1 runs inline)",
    )
    parser.add_argument(
        "--experiments",
        nargs="+",
        default=None,
        metavar="NAME",
        help="subset of experiments to run (default: all)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a measurement-scoped JSONL query trace to PATH "
        f"(default: the {TRACE_ENV} environment variable, else off)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="queries per buffer pool (default: REPRO_BATCH or 1)",
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help=f"storage backend under the disk (default: {BACKEND_ENV} or "
        "simulated; I/O counts are backend-independent, but goldens bind "
        "to simulated — see docs/storage-backends.md)",
    )
    parser.add_argument(
        "--join-block",
        type=int,
        default=None,
        metavar="N",
        help="outer tuples per join block (default: REPRO_JOIN_BLOCK or 1; "
        "1 is the per-probe protocol, >1 enables the block rank-join "
        "engine's shared scans and adaptive thresholds)",
    )
    args = parser.parse_args(argv)

    scale = (
        _SCALES[args.scale]() if args.scale else ExperimentScale.from_env()
    )
    jobs = resolve_jobs(args.jobs)
    if args.backend is not None:
        set_active_backend(args.backend)
    # Resolved once; run_experiments ships the same values to workers.
    ctx = ExecContext.capture(batch=args.batch, join_block=args.join_block)
    names = args.experiments or list(ALL_EXPERIMENTS)
    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    print(
        f"scale: crm={scale.crm_tuples} synth={scale.synth_tuples} "
        f"qpp={scale.queries_per_point}  jobs={jobs}  "
        f"batch={ctx.batch}  "
        f"join_block={ctx.join_block}  backend={ctx.backend.name}"
    )

    trace_path = resolve_trace_path(
        str(args.trace) if args.trace is not None else None
    )
    metrics = MetricsRegistry()
    started = time.perf_counter()
    # batch + join_block + mode + backend + sketch identify the
    # execution protocol; compare_io refuses to diff result dirs whose
    # protocols conflict (batch or join_block > 1 legally lowers reads,
    # so cross-protocol diffs are apples to oranges; a non-simulated
    # backend keeps I/O identical but invalidates every wall-clock
    # field, and goldens bind to simulated only).  run_all always
    # measures: serving-mode results are never golden-comparable
    # (docs/serving.md).  run_all is a single-node run, declared as
    # shards=1 over the in-process transport so scatter-gather result
    # dirs (docs/sharding.md) are only diffed against it when their
    # shard protocol matches.
    summary = {
        "jobs": jobs,
        **ctx.protocol(),
        "mode": "measure",
        "shards": 1,
        "transport": "local",
        "decoded_cache": os.environ.get(DECODED_CACHE_ENV, "default"),
        "scale": {
            "crm_tuples": scale.crm_tuples,
            "synth_tuples": scale.synth_tuples,
            "queries_per_point": scale.queries_per_point,
        },
        "experiments": {},
    }
    for name, result, elapsed in run_experiments(
        names,
        scale,
        jobs,
        trace_path=trace_path,
        metrics=metrics,
        batch=ctx.batch,
        join_block=ctx.join_block,
    ):
        table = format_result(result)
        print(table)
        print(f"[{name}: {elapsed:.1f}s]\n", flush=True)
        (results_dir / f"{name}.txt").write_text(table + "\n")
        payload = result_to_dict(result)
        payload["elapsed_seconds"] = round(elapsed, 3)
        (results_dir / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        summary["experiments"][name] = round(elapsed, 3)
    summary["total_wall_clock_seconds"] = round(
        time.perf_counter() - started, 3
    )
    # Measurement-scoped event counters for the whole run (identical for
    # any --jobs value).  compare_io only reads BENCH_<name>.json point
    # fields, so adding this to the summary cannot perturb I/O diffs.
    summary["metrics"] = metrics.snapshot()
    if trace_path is not None:
        summary["trace"] = str(trace_path)
    (results_dir / "BENCH_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    print(
        f"total: {summary['total_wall_clock_seconds']:.1f}s "
        f"({jobs} job{'s' if jobs != 1 else ''})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
