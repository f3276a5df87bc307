#!/usr/bin/env python
"""Ablation: scatter-gather sharding with distributed-τ propagation.

Usage::

    python benchmarks/bench_abl_shard.py [results_dir]
        [--quick] [--tuples N] [--queries-per-point N]
        [--shards S [S ...]] [--assert-speedup S] [--trace PATH]

Runs a fixed top-k workload (synthetic uniform + zipf datasets, the
quick scale's lowest selectivity) four ways per shard count:

* **single** — the paper's single-node protocol via
  :func:`repro.bench.harness.measure_query` (fresh 100-frame pool per
  query).  This is the baseline every gate compares against;
* **shards=1** — the same queries through
  :class:`repro.shard.ShardCoordinator` over one shard.  Must be
  *bit-identical* to single (answers, scores, tie order, total and
  posting reads) — the differential suite's claim, re-asserted here on
  the benchmark workload and exported as a compare_io-checkable dir;
* **tau** (``fanout=1``) — the distributed-τ leg: shards probed one
  round at a time, each round's probes carrying the coordinator's
  current global k-th score as their ``tau_floor``;
* **noprop** (``fanout=shards``) — one floorless round, the
  no-propagation control.

Gates (exit 1 on violation):

* every leg's answers (tids, scores, order) equal single's, at every
  shard count — sharding is a protocol change, never a semantics
  change;
* shards=1 total reads and posting reads equal single's exactly;
* **aggregate reads**: the tau leg's summed physical reads across
  shards never exceed the single-node run's.  Each shard verifies only
  its own slice against its own pool, so the aggregate avoids the
  random-access thrashing a single 100-frame pool pays on the full
  relation — this is the sharding win the paper's cost metric sees;
* **per-shard posting reads**: no single shard in the tau leg reads
  more posting pages than the single-node run — Lemma-1 stops fire
  against the global floor, so a shard's scan depth is bounded by the
  single-node scan of the same bound curve;
* **propagation**: the tau leg's aggregate posting reads never exceed
  the noprop leg's, and beat it strictly at the largest shard count —
  the floor must pay for its rounds.

Wall-clock is *reported*, not gated by default: the single-node wall
against the tau leg over :class:`~repro.shard.ProcessTransport`
(per-shard worker processes probed concurrently) at the largest shard
count.  ``--assert-speedup S`` turns the report into a gate.

Outputs, under ``results_dir``:

* ``BENCH_abl_shard.json`` — per-(dataset, strategy, shard-count) read
  totals, gate verdicts, and the wall-clock section;
* ``measure_single/`` and ``measure_shards1/`` — compare_io.py result
  dirs from the single-node and shards=1 legs; CI diffs them to pin
  the bit-identity claim through the public tooling (both declare
  ``shards: 1`` in their summaries).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.experiments import ExperimentScale, _dataset, _workload
from repro.bench.harness import IndexUnderTest, measure_query
from repro.exec import ExecContext
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.obs.trace import tracing_to_path
from repro.shard import (
    LocalTransport,
    ProcessTransport,
    ShardCoordinator,
    ShardedIndex,
)

#: Synthetic dataset kinds.  The relation must outsize the measurement
#: pool (100 frames) for the aggregate-reads gate to be interesting —
#: at the default 20000 tuples the single-node verifier thrashes its
#: pool while every shard's slice fits comfortably.
DATASETS = ("uniform", "zipf1.2")

#: Inverted-index strategies under test: the whole-list pruner and the
#: sorted-access scanner — the two Lemma-1 disciplines tau_floor
#: accelerates differently (list skips vs shallower scans).
STRATEGIES = ("row_pruning", "highest_prob_first")

DEFAULT_SHARDS = (1, 2, 4, 8)
DEFAULT_TUPLES = 20000


def _answers(matches):
    return [(m.tid, m.score) for m in matches]


def _run_coordinator(coordinator, queries):
    """Execute ``queries``; return (leg dict, per-query answers)."""
    reads = postings = rounds = 0
    max_shard_postings = 0
    answers = []
    points = []
    started = time.perf_counter()
    for query in queries:
        sharded = coordinator.execute(query)
        reads += sharded.reads
        postings += sharded.reads_by_tag.get("postings", 0)
        rounds += sharded.rounds
        max_shard_postings = max(
            max_shard_postings,
            max(
                p["reads_by_tag"].get("postings", 0)
                for p in sharded.per_shard
            ),
        )
        answers.append(_answers(sharded.matches))
        points.append(sharded)
    wall = time.perf_counter() - started
    leg = {
        "reads": reads,
        "posting_reads": postings,
        "max_shard_posting_reads": max_shard_postings,
        "rounds": rounds,
        "wall_clock_seconds": round(wall, 4),
    }
    return leg, answers, points


def _series_point(x, reads_list, tags_list, sizes):
    n = len(reads_list)
    tags = {}
    for per_query in tags_list:
        for tag, count in per_query.items():
            tags[tag] = tags.get(tag, 0) + count
    return {
        "x": x,
        "mean_reads": sum(reads_list) / n,
        "num_queries": n,
        "mean_result_size": sum(sizes) / n,
        "mean_reads_by_tag": {tag: count / n for tag, count in tags.items()},
    }


def _write_measure_dir(directory, series):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_abl_shard_points.json").write_text(
        json.dumps({"series": series}, indent=2) + "\n"
    )
    summary = {
        **ExecContext.capture().protocol(),
        "batch": 1,
        "mode": "measure",
        "shards": 1,
        "transport": "local",
    }
    (directory / "BENCH_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )


def _run(args, scale):
    selectivity = min(scale.selectivities)
    shard_counts = sorted(set(args.shards))
    max_shards = max(shard_counts)
    violations = []
    rows = []
    single_series = {}
    shards1_series = {}
    wall_report = []

    for dataset in DATASETS:
        key = (dataset, args.tuples, 0, scale.seed)
        relation = _dataset(dataset, args.tuples, 0, scale.seed)
        workload = _workload(key, (selectivity,), args.queries_per_point,
                             scale.seed)
        queries = [
            cq.top_k_query()
            for calibrated in workload.values()
            for cq in calibrated
        ]
        for strategy in STRATEGIES:
            label = f"{dataset}-{strategy}"
            single_index = ProbabilisticInvertedIndex(len(relation.domain))
            single_index.build(relation)
            under = IndexUnderTest(label, single_index, strategy=strategy)

            single_reads, single_tags, single_sizes = [], [], []
            single_answers = []
            started = time.perf_counter()
            for query in queries:
                measured = measure_query(under, query, scale.pool_size)
                single_reads.append(measured.reads)
                single_tags.append(dict(measured.reads_by_tag))
                single_sizes.append(measured.result_size)
                single_answers.append(
                    _answers(single_index.execute(query, strategy=strategy).matches)
                )
            single_wall = time.perf_counter() - started
            single = {
                "reads": sum(single_reads),
                "posting_reads": sum(
                    tags.get("postings", 0) for tags in single_tags
                ),
                "wall_clock_seconds": round(single_wall, 4),
            }
            single_series[label] = [
                _series_point(
                    selectivity * 100.0, single_reads, single_tags,
                    single_sizes,
                )
            ]

            for num_shards in shard_counts:
                sharded = ShardedIndex.build(
                    relation, num_shards, strategy=strategy
                )
                transport = LocalTransport(sharded, pool_size=scale.pool_size)
                tau_leg, tau_answers, tau_points = _run_coordinator(
                    ShardCoordinator(transport, fanout=1), queries
                )
                noprop_leg, noprop_answers, _ = _run_coordinator(
                    ShardCoordinator(transport, fanout=num_shards), queries
                )
                where = f"{label} shards={num_shards}"
                if tau_answers != single_answers:
                    violations.append(f"tau answers diverge: {where}")
                if noprop_answers != single_answers:
                    violations.append(f"noprop answers diverge: {where}")
                if num_shards == 1:
                    if tau_leg["reads"] != single["reads"]:
                        violations.append(
                            f"shards=1 reads {tau_leg['reads']} != "
                            f"single {single['reads']}: {where}"
                        )
                    if tau_leg["posting_reads"] != single["posting_reads"]:
                        violations.append(
                            f"shards=1 posting reads "
                            f"{tau_leg['posting_reads']} != single "
                            f"{single['posting_reads']}: {where}"
                        )
                    shards1_series[label] = [
                        _series_point(
                            selectivity * 100.0,
                            [p.reads for p in tau_points],
                            [dict(p.reads_by_tag) for p in tau_points],
                            [len(p) for p in tau_points],
                        )
                    ]
                else:
                    if tau_leg["reads"] > single["reads"]:
                        violations.append(
                            f"aggregate reads {tau_leg['reads']} > "
                            f"single-node {single['reads']}: {where}"
                        )
                    if (
                        tau_leg["max_shard_posting_reads"]
                        > single["posting_reads"]
                    ):
                        violations.append(
                            f"a shard read "
                            f"{tau_leg['max_shard_posting_reads']} posting "
                            f"pages > single-node "
                            f"{single['posting_reads']}: {where}"
                        )
                    if tau_leg["posting_reads"] > noprop_leg["posting_reads"]:
                        violations.append(
                            f"tau posting reads {tau_leg['posting_reads']} > "
                            f"noprop {noprop_leg['posting_reads']}: {where}"
                        )
                rows.append(
                    {
                        "dataset": dataset,
                        "strategy": strategy,
                        "shards": num_shards,
                        "single": single,
                        "tau": tau_leg,
                        "noprop": noprop_leg,
                    }
                )
                print(
                    f"{where}: single reads={single['reads']} "
                    f"post={single['posting_reads']} | "
                    f"tau reads={tau_leg['reads']} "
                    f"post={tau_leg['posting_reads']} "
                    f"maxshard={tau_leg['max_shard_posting_reads']} | "
                    f"noprop post={noprop_leg['posting_reads']}"
                )

            if not args.skip_process:
                # Wall-clock leg: the same tau protocol over per-shard
                # worker processes, probed concurrently.
                transport = ProcessTransport.from_sharded_index(
                    ShardedIndex.build(relation, max_shards,
                                       strategy=strategy),
                    pool_size=scale.pool_size,
                )
                try:
                    process_leg, process_answers, _ = _run_coordinator(
                        ShardCoordinator(transport, fanout=1), queries
                    )
                finally:
                    transport.close()
                if process_answers != single_answers:
                    violations.append(
                        f"process-transport answers diverge: {label}"
                    )
                speedup = (
                    round(
                        single["wall_clock_seconds"]
                        / process_leg["wall_clock_seconds"],
                        3,
                    )
                    if process_leg["wall_clock_seconds"] > 0
                    else None
                )
                wall_report.append(
                    {
                        "dataset": dataset,
                        "strategy": strategy,
                        "shards": max_shards,
                        "transport": "process",
                        "single_wall_clock_seconds":
                            single["wall_clock_seconds"],
                        "tau_wall_clock_seconds":
                            process_leg["wall_clock_seconds"],
                        "speedup": speedup,
                    }
                )
                print(
                    f"{label} process shards={max_shards}: "
                    f"single={single['wall_clock_seconds']:.3f}s "
                    f"tau={process_leg['wall_clock_seconds']:.3f}s "
                    f"speedup={speedup}x"
                )
    # Propagation must beat its control in aggregate at the largest
    # shard count (per-config it may tie when a floor round skips
    # nothing — e.g. a floor landing between two page boundaries).
    if max_shards > 1:
        tau_total = sum(
            row["tau"]["posting_reads"]
            for row in rows
            if row["shards"] == max_shards
        )
        noprop_total = sum(
            row["noprop"]["posting_reads"]
            for row in rows
            if row["shards"] == max_shards
        )
        if tau_total >= noprop_total:
            violations.append(
                f"aggregate tau posting reads {tau_total} not strictly "
                f"below noprop {noprop_total} at shards={max_shards}"
            )
    return rows, wall_report, single_series, shards1_series, violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Scatter-gather sharding ablation."
    )
    parser.add_argument(
        "results_dir",
        nargs="?",
        type=Path,
        default=Path("benchmarks/results/abl_shard"),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="halve the workload (2 queries per point, shards 1/2/4, "
        "skip the process-transport wall-clock leg)",
    )
    parser.add_argument("--tuples", type=int, default=DEFAULT_TUPLES)
    parser.add_argument("--queries-per-point", type=int, default=3)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=list(DEFAULT_SHARDS)
    )
    parser.add_argument(
        "--skip-process",
        action="store_true",
        help="skip the process-transport wall-clock leg",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="S",
        help="fail unless every process-transport leg is >= S x single",
    )
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.queries_per_point = min(args.queries_per_point, 2)
        args.shards = [s for s in args.shards if s <= 4] or [1, 2, 4]
        args.skip_process = True
    if 1 not in args.shards:
        args.shards.append(1)

    scale = ExperimentScale.quick()
    print(
        f"tuples={args.tuples} "
        f"shards={sorted(set(args.shards))} "
        f"queries_per_point={args.queries_per_point}"
    )
    if args.trace is not None:
        with tracing_to_path(args.trace):
            rows, wall, single_series, shards1_series, violations = _run(
                args, scale
            )
        print(f"trace written to {args.trace}")
    else:
        rows, wall, single_series, shards1_series, violations = _run(
            args, scale
        )

    if violations:
        for violation in violations[:20]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        print(f"FAIL: {len(violations)} gate violations", file=sys.stderr)
        return 1

    payload = {
        "config": {
            "datasets": list(DATASETS),
            "strategies": list(STRATEGIES),
            "tuples": args.tuples,
            "shards": sorted(set(args.shards)),
            "queries_per_point": args.queries_per_point,
            "pool_size": scale.pool_size,
        },
        "rows": rows,
        "wall_clock": wall,
        "violations": 0,
    }
    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_abl_shard.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    _write_measure_dir(results_dir / "measure_single", single_series)
    _write_measure_dir(results_dir / "measure_shards1", shards1_series)

    failures = []
    if args.assert_speedup is not None:
        for leg in wall:
            if leg["speedup"] is None or leg["speedup"] < args.assert_speedup:
                failures.append(
                    f"{leg['dataset']}-{leg['strategy']} speedup "
                    f"{leg['speedup']} < required {args.assert_speedup}"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
