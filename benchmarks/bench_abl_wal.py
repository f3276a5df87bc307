#!/usr/bin/env python
"""Ablation: incremental (WAL + LSM segments + compaction) vs static build.

Usage::

    python benchmarks/bench_abl_wal.py [results_dir]
        [--scale quick|default|paper] [--queries N] [--churn F]
        [--segment-tuples N] [--trace PATH]

Builds the same final tuple set two ways over Fig-5-style synthetic
datasets:

* **static** — one bulk :meth:`build`, the layout every committed
  golden was recorded against;
* **incremental** — an empty index attached to a write-ahead log, grown
  tuple-by-tuple with insert-heavy churn (a fraction ``--churn`` of
  tuples is deleted and reinserted along the way, forcing tombstones
  and multiple sealed segments), then folded down with one
  :meth:`compact`.

Both legs then answer an identical calibrated workload under the
measurement protocol (fresh 100-frame pool per query).  Exactness
gates, asserted on *every* query:

* answers (tids, scores, presentation order) are identical;
* post-compaction measured reads are bit-identical — compaction
  restores exactly the static layout, so the mutability machinery can
  never silently change the cost model.

Outputs, under ``results_dir``:

* ``BENCH_abl_wal.json`` — insert/delete throughput, WAL append counts,
  compaction wall-clock, and the per-leg read totals;
* ``static/`` and ``incremental/`` — compare_io.py-compatible result
  dirs (both declare ``mode: "measure"``); CI diffs them so the read
  identity is also enforced by the standing tooling.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.bench.experiments import ExperimentScale, _dataset, _workload
from repro.exec import ExecContext, ServingExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.obs.trace import tracing_to_path
from repro.wal import WriteAheadLog

_SCALES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale.default,
    "paper": ExperimentScale.paper,
}

DATASETS = ("uniform", "pairwise")
KINDS = ("threshold", "topk")
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


def _grow_incremental(relation, churn, wal_dir, dataset):
    """Insert every tuple through the WAL with interleaved churn.

    Returns (index, wal, timings) where timings carries the insert /
    delete counts and wall-clocks for the throughput report.
    """
    index = ProbabilisticInvertedIndex(len(relation.domain))
    wal = WriteAheadLog(Path(wal_dir) / f"{dataset}.wal", fsync=False)
    index.attach_wal(wal)
    inserts = deletes = 0
    started = time.perf_counter()
    churn_stride = max(2, int(1.0 / churn)) if churn > 0 else 0
    for tid in relation.tids():
        index.insert(tid, relation.uda_of(tid))
        inserts += 1
        if churn_stride and tid % churn_stride == 1:
            index.delete(tid)
            index.insert(tid, relation.uda_of(tid))
            deletes += 1
            inserts += 1
    grow_wall = time.perf_counter() - started
    started = time.perf_counter()
    index.compact()
    compact_wall = time.perf_counter() - started
    return index, wal, {
        "inserts": inserts,
        "deletes": deletes,
        "wal_records": wal.last_lsn,
        "grow_wall_seconds": round(grow_wall, 4),
        "insert_throughput_per_s": (
            round((inserts + deletes) / grow_wall, 1) if grow_wall > 0 else None
        ),
        "compact_wall_seconds": round(compact_wall, 4),
    }


def _run_workload(args, scale, wal_dir):
    """Measure both legs; returns (legs, series, violations)."""
    points = len(DATASETS) * len(KINDS) * len(scale.selectivities)
    qpp = -(-args.queries // points)  # ceil division
    legs = {
        "static": {"reads": 0, "posting_reads": 0},
        "incremental": {"reads": 0, "posting_reads": 0},
    }
    growth = {}
    series = {"static": {}, "incremental": {}}
    violations = []
    for dataset in DATASETS:
        key = (dataset, scale.synth_tuples, 0, scale.seed)
        relation = _dataset(*key)
        workload = _workload(key, scale.selectivities, qpp, scale.seed)

        static_index = ProbabilisticInvertedIndex(len(relation.domain))
        static_index.build(relation)
        grown_index, wal, timings = _grow_incremental(
            relation, args.churn, wal_dir, dataset
        )
        growth[dataset] = timings

        static_exec = ServingExecutor(
            static_index,
            strategy=STRATEGY,
            mode="measure",
            pool_size=scale.pool_size,
        )
        grown_exec = ServingExecutor(
            grown_index,
            strategy=STRATEGY,
            mode="measure",
            pool_size=scale.pool_size,
        )
        for kind in KINDS:
            series_name = f"{dataset}-{kind}"
            series["static"][series_name] = []
            series["incremental"][series_name] = []
            for selectivity, calibrated in workload.items():
                queries = _point_queries(calibrated, kind)
                static_served = [static_exec.execute(q) for q in queries]
                grown_served = [grown_exec.execute(q) for q in queries]
                series["static"][series_name].append(
                    _series_point(selectivity * 100.0, static_served)
                )
                series["incremental"][series_name].append(
                    _series_point(selectivity * 100.0, grown_served)
                )
                for position, (s, g) in enumerate(
                    zip(static_served, grown_served)
                ):
                    where = f"{series_name} @ {selectivity} query {position}"
                    if _answer_key(g) != _answer_key(s):
                        violations.append(f"answers diverge: {where}")
                    if g.reads != s.reads:
                        violations.append(
                            f"reads diverge: incremental {g.reads} != "
                            f"static {s.reads}: {where}"
                        )
                    legs["static"]["reads"] += s.reads
                    legs["incremental"]["reads"] += g.reads
                    legs["static"]["posting_reads"] += s.reads_by_tag.get(
                        "postings", 0
                    )
                    legs["incremental"]["posting_reads"] += g.reads_by_tag.get(
                        "postings", 0
                    )
        wal.close()
    legs["incremental"]["growth"] = growth
    return legs, series, violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Incremental (WAL + compaction) vs static-build ablation."
    )
    parser.add_argument(
        "results_dir",
        nargs="?",
        type=Path,
        default=Path("benchmarks/results/abl_wal"),
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    parser.add_argument(
        "--queries",
        type=int,
        default=120,
        help="minimum total workload size (default: 120)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=0.25,
        help="fraction of tuples deleted and reinserted (default: 0.25)",
    )
    parser.add_argument(
        "--segment-tuples",
        type=int,
        default=64,
        help="mutable-segment seal threshold (default: 64)",
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
    os.environ["REPRO_SEGMENT_TUPLES"] = str(args.segment_tuples)
    print(
        f"scale={args.scale} "
        f"queries={points * qpp} ({points} points x {qpp}) "
        f"churn={args.churn} segment_tuples={args.segment_tuples}"
    )

    with tempfile.TemporaryDirectory(prefix="abl-wal-") as wal_dir:
        if args.trace is not None:
            with tracing_to_path(args.trace):
                legs, series, violations = _run_workload(args, scale, wal_dir)
            print(f"trace written to {args.trace}")
        else:
            legs, series, violations = _run_workload(args, scale, wal_dir)

    for dataset, timings in legs["incremental"]["growth"].items():
        print(
            f"{dataset}: {timings['inserts']} inserts "
            f"{timings['deletes']} deletes "
            f"({timings['insert_throughput_per_s']} mut/s)  "
            f"compact={timings['compact_wall_seconds']}s "
            f"wal_records={timings['wal_records']}"
        )
    print(
        f"static reads={legs['static']['reads']} "
        f"incremental reads={legs['incremental']['reads']}"
    )
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
            "churn": args.churn,
            "segment_tuples": args.segment_tuples,
        },
        "legs": legs,
        "violations": 0,
    }
    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_abl_wal.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    summary = {
        **ExecContext.capture().protocol(),
        "batch": 1,
        "mode": "measure",
    }
    for leg in ("static", "incremental"):
        leg_dir = results_dir / leg
        leg_dir.mkdir(parents=True, exist_ok=True)
        (leg_dir / "BENCH_abl_wal_points.json").write_text(
            json.dumps({"series": series[leg]}, indent=2) + "\n"
        )
        (leg_dir / "BENCH_summary.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )
    print(f"results under {results_dir}/ (static/ and incremental/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
