#!/usr/bin/env python
"""Ablation: batched execution vs the per-query protocol.

Usage::

    python benchmarks/bench_abl_batch.py [results_dir]
        [--scale quick|default|paper] [--queries N]
        [--batch-sizes 1,8,32] [--assert-speedup S] [--assert-io-savings F]

Runs a Figure 5-style synthetic workload (uniform + pairwise datasets,
PETQ and top-k kinds over the scale's selectivities, >= ``--queries``
queries total) through the inverted index twice per point:

* **per-query** — the paper's protocol: a fresh 100-frame buffer pool
  per query (the baseline both for wall-clock and counted reads);
* **batched** — :class:`repro.exec.BatchExecutor` at each ``--batch-sizes``
  entry, amortizing one pool per batch.

Every batched run's answers are asserted *identical* (tid and score) to
the per-query answers, and the batch-size-1 run's physical reads are
asserted identical to the per-query reads — batching is purely an
execution-protocol change, never a semantics change.

Outputs, under ``results_dir``:

* ``BENCH_abl_batch.json`` — wall-clock, total reads, and posting-page
  reads per configuration, with speedups and savings vs per-query;
* ``perquery/`` and ``batch1/`` — compare_io.py-compatible result dirs
  (per-point mean reads) whose diff must be clean, used by CI's
  perf-smoke job.

``--assert-speedup S`` fails the run unless the *largest* batch size is
at least ``S``x faster than per-query; ``--assert-io-savings F`` fails
unless it saves at least fraction ``F`` of posting-page reads.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.experiments import ExperimentScale, _inverted, _workload
from repro.exec import BatchExecutor, ExecContext

_SCALES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale.default,
    "paper": ExperimentScale.paper,
}

#: Fig-5 synthetic dataset kinds.
DATASETS = ("uniform", "pairwise")

#: Query kinds per point.
KINDS = ("threshold", "topk")

#: Inverted-index strategy under test (fig5's).
STRATEGY = "highest_prob_first"


def _answer_key(result):
    return [(match.tid, match.score) for match in result.matches]


def _point_queries(calibrated_queries, kind):
    return [
        cq.threshold_query() if kind == "threshold" else cq.top_k_query()
        for cq in calibrated_queries
    ]


def _tag_delta(before, after):
    return {
        tag: after[tag] - before.get(tag, 0)
        for tag in after
        if after[tag] != before.get(tag, 0)
    }


def run_point_per_query(index, queries, pool_size):
    """Per-query protocol over one point; returns (answers, reads, tags, wall).

    This is exactly the paper's regime (and what
    :func:`repro.bench.harness.measure_query` measures): a fresh buffer
    pool per query, timed without the measurement harness's snapshot
    overhead so the wall-clock comparison against the batch executor is
    apples to apples.
    """
    from repro.storage.buffer import BufferPool

    tags_before = index.disk.snapshot_tags()
    before = index.disk.stats.snapshot()
    answers = []
    started = time.perf_counter()
    for query in queries:
        index.pool = BufferPool(index.disk, pool_size)
        answers.append(index.execute(query, strategy=STRATEGY))
    wall = time.perf_counter() - started
    delta = index.disk.stats.delta_since(before)
    tags = _tag_delta(tags_before, index.disk.snapshot_tags())
    return answers, delta.reads, tags, wall


def run_point_batched(index, queries, pool_size, batch_size):
    """Batched protocol over one point; returns (answers, reads, tags, wall)."""
    executor = BatchExecutor(
        index, strategy=STRATEGY, pool_size=pool_size, batch_size=batch_size
    )
    tags_before = index.disk.snapshot_tags()
    before = index.disk.stats.snapshot()
    started = time.perf_counter()
    answers = executor.run(queries)
    wall = time.perf_counter() - started
    delta = index.disk.stats.delta_since(before)
    tags = _tag_delta(tags_before, index.disk.snapshot_tags())
    return answers, delta.reads, tags, wall


def _series_point(x, reads, tags, answers):
    n = len(answers)
    return {
        "x": x,
        "mean_reads": reads / n,
        "num_queries": n,
        "mean_result_size": sum(len(a) for a in answers) / n,
        "mean_reads_by_tag": {tag: count / n for tag, count in tags.items()},
    }


def _write_compare_dir(directory, series, batch_declared):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_abl_batch_points.json").write_text(
        json.dumps({"series": series}, indent=2) + "\n"
    )
    (directory / "BENCH_summary.json").write_text(
        json.dumps(
            {**ExecContext.capture().protocol(), "batch": batch_declared},
            indent=2,
        )
        + "\n"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Batched vs per-query execution ablation."
    )
    parser.add_argument(
        "results_dir",
        nargs="?",
        type=Path,
        default=Path("benchmarks/results/abl_batch"),
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    parser.add_argument(
        "--queries",
        type=int,
        default=200,
        help="minimum total workload size (default: 200)",
    )
    parser.add_argument(
        "--batch-sizes",
        default="1,8,32",
        help="comma-separated batch sizes (default: 1,8,32)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="S",
        help="fail unless the largest batch size is >= S x faster",
    )
    parser.add_argument(
        "--assert-io-savings",
        type=float,
        default=None,
        metavar="F",
        help="fail unless it saves >= fraction F of posting-page reads",
    )
    args = parser.parse_args(argv)

    scale = _SCALES[args.scale]()
    batch_sizes = sorted(
        {int(raw) for raw in args.batch_sizes.split(",") if raw.strip()}
    )
    points = len(DATASETS) * len(KINDS) * len(scale.selectivities)
    qpp = -(-args.queries // points)  # ceil division
    total_queries = points * qpp
    print(
        f"scale={args.scale} "
        f"queries={total_queries} ({points} points x {qpp}) "
        f"batch_sizes={batch_sizes}"
    )

    per_query = {"wall": 0.0, "reads": 0, "posting_reads": 0}
    batched = {
        size: {"wall": 0.0, "reads": 0, "posting_reads": 0}
        for size in batch_sizes
    }
    pq_series = {}
    batch1_series = {}
    for dataset in DATASETS:
        key = (dataset, scale.synth_tuples, 0, scale.seed)
        index = _inverted(key)
        workload = _workload(
            key, scale.selectivities, qpp, scale.seed
        )
        for kind in KINDS:
            series_name = f"{dataset}-{kind}"
            pq_series[series_name] = []
            batch1_series[series_name] = []
            for selectivity, calibrated in workload.items():
                queries = _point_queries(calibrated, kind)
                baseline, pq_reads, pq_tags, wall = run_point_per_query(
                    index, queries, scale.pool_size
                )
                per_query["wall"] += wall
                per_query["reads"] += pq_reads
                per_query["posting_reads"] += pq_tags.get("postings", 0)
                pq_series[series_name].append(
                    _series_point(
                        selectivity * 100.0, pq_reads, pq_tags, baseline
                    )
                )
                for size in batch_sizes:
                    answers, reads, tags, wall = run_point_batched(
                        index, queries, scale.pool_size, size
                    )
                    batched[size]["wall"] += wall
                    batched[size]["reads"] += reads
                    batched[size]["posting_reads"] += tags.get("postings", 0)
                    for got, expected in zip(answers, baseline):
                        if _answer_key(got) != _answer_key(expected):
                            raise AssertionError(
                                f"batch={size} answers diverge on "
                                f"{series_name} @ {selectivity}"
                            )
                    if size == 1:
                        if reads != pq_reads:
                            raise AssertionError(
                                f"batch=1 reads {reads} != per-query "
                                f"{pq_reads} on {series_name} @ {selectivity}"
                            )
                        batch1_series[series_name].append(
                            _series_point(
                                selectivity * 100.0, reads, tags, answers
                            )
                        )

    payload = {
        "config": {
            "scale": args.scale,
            "strategy": STRATEGY,
            "pool_size": scale.pool_size,
            "datasets": list(DATASETS),
            "total_queries": total_queries,
            "batch_sizes": batch_sizes,
        },
        "per_query": {
            "wall_clock_seconds": round(per_query["wall"], 4),
            "reads": per_query["reads"],
            "posting_reads": per_query["posting_reads"],
        },
        "batched": {},
    }
    for size in batch_sizes:
        stats = batched[size]
        payload["batched"][str(size)] = {
            "wall_clock_seconds": round(stats["wall"], 4),
            "reads": stats["reads"],
            "posting_reads": stats["posting_reads"],
            "speedup": round(per_query["wall"] / stats["wall"], 3)
            if stats["wall"] > 0
            else None,
            "read_savings": round(
                1.0 - stats["reads"] / per_query["reads"], 4
            )
            if per_query["reads"]
            else 0.0,
            "posting_read_savings": round(
                1.0 - stats["posting_reads"] / per_query["posting_reads"], 4
            )
            if per_query["posting_reads"]
            else 0.0,
        }
        print(
            f"batch={size:3d}: wall={stats['wall']:.3f}s "
            f"(speedup {payload['batched'][str(size)]['speedup']}x)  "
            f"reads={stats['reads']} "
            f"posting_savings="
            f"{payload['batched'][str(size)]['posting_read_savings']:.1%}"
        )
    print(
        f"per-query: wall={per_query['wall']:.3f}s "
        f"reads={per_query['reads']} "
        f"posting_reads={per_query['posting_reads']}"
    )

    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_abl_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    _write_compare_dir(results_dir / "perquery", pq_series, 1)
    if 1 in batch_sizes:
        _write_compare_dir(results_dir / "batch1", batch1_series, 1)

    failures = []
    largest = batch_sizes[-1]
    stats = payload["batched"][str(largest)]
    if args.assert_speedup is not None and (
        stats["speedup"] is None or stats["speedup"] < args.assert_speedup
    ):
        failures.append(
            f"batch={largest} speedup {stats['speedup']} "
            f"< required {args.assert_speedup}"
        )
    if (
        args.assert_io_savings is not None
        and stats["posting_read_savings"] < args.assert_io_savings
    ):
        failures.append(
            f"batch={largest} posting-read savings "
            f"{stats['posting_read_savings']:.1%} "
            f"< required {args.assert_io_savings:.1%}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
