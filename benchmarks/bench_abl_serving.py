#!/usr/bin/env python
"""Ablation: serving-mode execution vs the per-query measurement protocol.

Usage::

    python benchmarks/bench_abl_serving.py [results_dir]
        [--scale quick|default|paper] [--queries N]
        [--assert-speedup S] [--assert-io-savings F] [--trace PATH]

Runs a Figure 5-style synthetic workload (uniform + pairwise datasets,
PETQ and top-k kinds over the scale's selectivities, >= ``--queries``
queries total) through the inverted index two ways:

* **cold** — ``mode="measure"``: the paper's protocol, a fresh
  100-frame buffer pool per query.  This is the baseline and the leg
  whose per-point reads are written compare_io.py-compatibly;
* **warm** — ``mode="serve"``: one long-lived shared pool per dataset
  (:class:`repro.exec.ServingExecutor`), requests executed one at a
  time — which is also how the server runs them (one ``execute`` per
  request; see ``tests/serve/test_server.py``).

Exactness gates, asserted on *every* query:

* warm answers (tids, scores, order) are identical to the cold
  answers — serving is an execution-protocol change, never a
  semantics change;
* warm per-request reads (total and posting pages) never exceed the
  cold reads for the same query — a warm fetch misses only if the same
  cold fetch would have missed.

Outputs, under ``results_dir``:

* ``BENCH_abl_serving.json`` — wall-clock, throughput, reads, and
  speedups/savings per leg;
* ``measure/`` — a compare_io.py-compatible result dir from the cold
  leg (``mode: "measure"`` declared in its summary), which CI diffs to
  pin serving work to zero measurement drift.

``--assert-speedup S`` fails the run unless the warm leg is at least
``S``x the cold throughput; ``--assert-io-savings F`` fails unless the
warm leg saves at least fraction ``F`` of posting-page reads.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.experiments import ExperimentScale, _inverted, _workload
from repro.exec import ExecContext, ServingExecutor
from repro.obs.trace import tracing_to_path

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


def _answer_key(served):
    return [(match.tid, match.score) for match in served.result.matches]


def _point_queries(calibrated_queries, kind):
    return [
        cq.threshold_query() if kind == "threshold" else cq.top_k_query()
        for cq in calibrated_queries
    ]


def _series_point(x, served_list):
    n = len(served_list)
    tags = {}
    for served in served_list:
        for tag, count in served.reads_by_tag.items():
            tags[tag] = tags.get(tag, 0) + count
    return {
        "x": x,
        "mean_reads": sum(s.reads for s in served_list) / n,
        "num_queries": n,
        "mean_result_size": sum(len(s) for s in served_list) / n,
        "mean_reads_by_tag": {tag: count / n for tag, count in tags.items()},
    }


def _leg_totals(served_by_point, wall):
    total = sum(len(point) for point in served_by_point)
    return {
        "wall_clock_seconds": round(wall, 4),
        "throughput_qps": round(total / wall, 1) if wall > 0 else None,
        "reads": sum(s.reads for point in served_by_point for s in point),
        "posting_reads": sum(
            s.reads_by_tag.get("postings", 0)
            for point in served_by_point
            for s in point
        ),
    }


def _run_workload(args, scale):
    """Execute both legs; returns (legs, cold_series, violations)."""
    points = len(DATASETS) * len(KINDS) * len(scale.selectivities)
    qpp = -(-args.queries // points)  # ceil division
    cold_points, warm_points = [], []
    cold_wall = warm_wall = 0.0
    cold_series = {}
    violations = []
    for dataset in DATASETS:
        key = (dataset, scale.synth_tuples, 0, scale.seed)
        index = _inverted(key)
        workload = _workload(key, scale.selectivities, qpp, scale.seed)
        cold_exec = ServingExecutor(
            index,
            strategy=STRATEGY,
            mode="measure",
            pool_size=scale.pool_size,
        )
        # One warm pool per dataset, shared across every point below —
        # exactly a server's lifetime over this index.
        warm_exec = ServingExecutor(index, strategy=STRATEGY, mode="serve")
        for kind in KINDS:
            series_name = f"{dataset}-{kind}"
            cold_series[series_name] = []
            for selectivity, calibrated in workload.items():
                queries = _point_queries(calibrated, kind)

                started = time.perf_counter()
                cold = [cold_exec.execute(q) for q in queries]
                cold_wall += time.perf_counter() - started
                cold_points.append(cold)
                cold_series[series_name].append(
                    _series_point(selectivity * 100.0, cold)
                )

                started = time.perf_counter()
                warm = [warm_exec.execute(q) for q in queries]
                warm_wall += time.perf_counter() - started
                warm_points.append(warm)

                for position, (c, w) in enumerate(zip(cold, warm)):
                    where = f"{series_name} @ {selectivity} query {position}"
                    if _answer_key(w) != _answer_key(c):
                        violations.append(f"warm answers diverge: {where}")
                    if w.reads > c.reads:
                        violations.append(
                            f"warm reads {w.reads} > cold {c.reads}: {where}"
                        )
                    warm_postings = w.reads_by_tag.get("postings", 0)
                    cold_postings = c.reads_by_tag.get("postings", 0)
                    if warm_postings > cold_postings:
                        violations.append(
                            f"warm posting reads {warm_postings} > cold "
                            f"{cold_postings}: {where}"
                        )
        warm_exec.check_quiesced()
    legs = {
        "cold": _leg_totals(cold_points, cold_wall),
        "warm": _leg_totals(warm_points, warm_wall),
    }
    return legs, cold_series, violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Serving-mode vs measurement-protocol ablation."
    )
    parser.add_argument(
        "results_dir",
        nargs="?",
        type=Path,
        default=Path("benchmarks/results/abl_serving"),
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    parser.add_argument(
        "--queries",
        type=int,
        default=200,
        help="minimum total workload size (default: 200)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="S",
        help="fail unless warm throughput is >= S x cold",
    )
    parser.add_argument(
        "--assert-io-savings",
        type=float,
        default=None,
        metavar="F",
        help="fail unless warm saves >= fraction F of posting reads",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a schema-valid JSONL trace of the whole run",
    )
    args = parser.parse_args(argv)

    scale = _SCALES[args.scale]()
    points = len(DATASETS) * len(KINDS) * len(scale.selectivities)
    qpp = -(-args.queries // points)
    print(
        f"scale={args.scale} "
        f"queries={points * qpp} ({points} points x {qpp})"
    )

    if args.trace is not None:
        with tracing_to_path(args.trace):
            legs, cold_series, violations = _run_workload(args, scale)
        print(f"trace written to {args.trace}")
    else:
        legs, cold_series, violations = _run_workload(args, scale)

    cold, warm = legs["cold"], legs["warm"]
    warm["speedup"] = (
        round(cold["wall_clock_seconds"] / warm["wall_clock_seconds"], 3)
        if warm["wall_clock_seconds"] > 0
        else None
    )
    warm["read_savings"] = (
        round(1.0 - warm["reads"] / cold["reads"], 4) if cold["reads"] else 0.0
    )
    warm["posting_read_savings"] = (
        round(1.0 - warm["posting_reads"] / cold["posting_reads"], 4)
        if cold["posting_reads"]
        else 0.0
    )
    for name, leg in legs.items():
        line = (
            f"{name:9s}: wall={leg['wall_clock_seconds']:.3f}s "
            f"({leg['throughput_qps']} q/s)  reads={leg['reads']} "
            f"posting_reads={leg['posting_reads']}"
        )
        if "speedup" in leg:
            line += (
                f"  speedup={leg['speedup']}x "
                f"posting_savings={leg['posting_read_savings']:.1%}"
            )
        print(line)
    if violations:
        for violation in violations[:20]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        print(
            f"FAIL: {len(violations)} exactness violations", file=sys.stderr
        )
        return 1

    payload = {
        "config": {
            "scale": args.scale,
            "strategy": STRATEGY,
            "pool_size": scale.pool_size,
            "datasets": list(DATASETS),
            "total_queries": points * qpp,
        },
        "legs": legs,
        "violations": 0,
    }
    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_abl_serving.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    measure_dir = results_dir / "measure"
    measure_dir.mkdir(parents=True, exist_ok=True)
    (measure_dir / "BENCH_abl_serving_points.json").write_text(
        json.dumps({"series": cold_series}, indent=2) + "\n"
    )
    (measure_dir / "BENCH_summary.json").write_text(
        json.dumps(
            {
                **ExecContext.capture().protocol(),
                "batch": 1,
                "mode": "measure",
            },
            indent=2,
        )
        + "\n"
    )

    failures = []
    if args.assert_speedup is not None and (
        warm["speedup"] is None or warm["speedup"] < args.assert_speedup
    ):
        failures.append(
            f"warm speedup {warm['speedup']} < required {args.assert_speedup}"
        )
    if (
        args.assert_io_savings is not None
        and warm["posting_read_savings"] < args.assert_io_savings
    ):
        failures.append(
            f"warm posting-read savings {warm['posting_read_savings']:.1%} "
            f"< required {args.assert_io_savings:.1%}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
