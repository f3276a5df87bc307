#!/usr/bin/env python
"""Ablation A6 — PETJ access paths, plus the block rank-join ablation.

Beyond the paper: Definition 6 defines the joins but the evaluation only
measures selections; this bench measures per-outer-tuple I/O for an
index-nested-loop self-join.

Run as a script for the block rank-join ablation::

    python benchmarks/bench_abl_join.py [results_dir]
        [--scale quick|default|paper] [--outer N] [--top-k K]
        [--block-sizes 1,4,16,64] [--assert-speedup S]
        [--assert-io-savings F]

A Figure 5-scale uniform self-join workload (PETJ at the join ablation's
thresholds plus one PEJ-top-k point) runs through:

* **per-probe** — the paper's protocol: a fresh ``pool_size``-frame
  buffer pool per probe (the baseline for wall-clock and reads);
* **blocked** — :class:`repro.exec.BlockJoinExecutor` at each
  ``--block-sizes`` entry (one fresh pool per *block*, shared-scan PETJ
  scoring, grouped probing, and adaptive top-k thresholds).

Every blocked run's pair set (left tid, right tid, and bit-exact score)
is asserted identical to the per-probe pairs, and the block-size-1 run's
physical reads are asserted identical to the per-probe reads — blocking
is purely an execution-protocol change, never a semantics change.

Outputs, under ``results_dir``:

* ``BENCH_abl_join_blocks.json`` — wall-clock, total reads, and
  posting-page reads per block size, with speedups and savings vs
  per-probe;
* ``perprobe/`` and ``block1/`` — compare_io.py-compatible result dirs
  (per-point mean reads) whose diff must be clean, used by CI's
  perf-smoke job.

``--assert-speedup S`` / ``--assert-io-savings F`` gate block size 16
(or the largest configured size) against the per-probe baseline.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench import ablation_join
from repro.bench.experiments import ExperimentScale, _dataset, _inverted
from repro.core.joins import BoundedPairHeap, JoinPair
from repro.core.queries import EqualityThresholdQuery, EqualityTopKQuery
from repro.core.relation import UncertainRelation
from repro.exec import BlockJoinExecutor, ExecContext
from repro.storage.buffer import BufferPool

_SCALES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale.default,
    "paper": ExperimentScale.paper,
}

#: PETJ thresholds, matching the A6 ablation's x axis.
THRESHOLDS = (0.2, 0.3, 0.4)

#: Inverted-index strategy probes run with.
STRATEGY = "highest_prob_first"


def test_abl_join(benchmark, scale, report):
    result = benchmark.pedantic(
        ablation_join, args=(scale,), iterations=1, rounds=1
    )
    report(result, benchmark)
    assert set(result.series) == {"Join-Inv-Thres", "Join-PDR-Thres"}


def _pair_key(pairs):
    return [(p.left_tid, p.right_tid, p.score) for p in pairs]


def _tag_delta(before, after):
    return {
        tag: after[tag] - before.get(tag, 0)
        for tag in after
        if after[tag] != before.get(tag, 0)
    }


def _measured(index, run):
    """Run ``run()`` against ``index``; returns (pairs, reads, tags, wall)."""
    tags_before = index.disk.snapshot_tags()
    before = index.disk.stats.snapshot()
    started = time.perf_counter()
    pairs = run()
    wall = time.perf_counter() - started
    delta = index.disk.stats.delta_since(before)
    return pairs, delta.reads, _tag_delta(tags_before, index.disk.snapshot_tags()), wall


def run_point_per_probe(index, outer, pool_size, *, threshold=None, k=None):
    """The paper's per-probe protocol: a fresh pool per outer tuple."""

    def run():
        heap = BoundedPairHeap(k) if k is not None else None
        pairs = []
        for left_tid in outer.tids():
            index.pool = BufferPool(index.disk, pool_size)
            if threshold is not None:
                query = EqualityThresholdQuery(outer.uda_of(left_tid), threshold)
            else:
                query = EqualityTopKQuery(outer.uda_of(left_tid), k)
            for match in index.execute(query, strategy=STRATEGY):
                pair = JoinPair(
                    left_tid=left_tid, right_tid=match.tid, score=match.score
                )
                if heap is not None:
                    heap.push(pair)
                else:
                    pairs.append(pair)
        return heap.sorted_pairs() if heap is not None else sorted(pairs)

    return _measured(index, run)


def run_point_blocked(
    relation, index, outer, pool_size, block_size, *, threshold=None, k=None
):
    """The block engine at ``block_size`` (fresh pool per block)."""
    engine = BlockJoinExecutor(
        relation,
        index,
        strategy=STRATEGY,
        block_size=block_size,
        pool_size=pool_size,
    )

    def run():
        if threshold is not None:
            return list(engine.petj(outer, threshold))
        return list(engine.pej_top_k(outer, k))

    return _measured(index, run)


def _series_point(x, reads, tags, pairs, probes):
    return {
        "x": x,
        "mean_reads": reads / probes,
        "num_queries": probes,
        "mean_result_size": len(pairs) / probes,
        "mean_reads_by_tag": {
            tag: count / probes for tag, count in tags.items()
        },
    }


def _write_compare_dir(directory, series, block_declared):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_abl_join_points.json").write_text(
        json.dumps({"series": series}, indent=2) + "\n"
    )
    (directory / "BENCH_summary.json").write_text(
        json.dumps(
            {
                **ExecContext.capture().protocol(),
                "join_block": block_declared,
            },
            indent=2,
        )
        + "\n"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Block rank-join vs per-probe execution ablation."
    )
    parser.add_argument(
        "results_dir",
        nargs="?",
        type=Path,
        default=Path("benchmarks/results/abl_join_blocks"),
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    parser.add_argument(
        "--outer",
        type=int,
        default=96,
        help="outer tuples in the self-join sample (default: 96)",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=10,
        help="k for the PEJ-top-k point (default: 10)",
    )
    parser.add_argument(
        "--block-sizes",
        default="1,4,16,64",
        help="comma-separated join block sizes (default: 1,4,16,64)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="S",
        help="fail unless block 16 (or the largest size) is >= S x faster",
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
    block_sizes = sorted(
        {int(raw) for raw in args.block_sizes.split(",") if raw.strip()}
    )
    key = ("uniform", scale.synth_tuples, 0, scale.seed)
    relation = _dataset(*key)
    index = _inverted(key)
    sample = min(scale.synth_tuples, args.outer)
    outer = UncertainRelation(relation.domain, name="outer")
    for tid in range(sample):
        outer.append(relation.uda_of(tid))
    points = [("petj", threshold) for threshold in THRESHOLDS]
    points.append(("pej_top_k", args.top_k))
    print(
        f"scale={args.scale} outer={sample} "
        f"points={len(points)} block_sizes={block_sizes}"
    )

    per_probe = {"wall": 0.0, "reads": 0, "posting_reads": 0}
    blocked = {
        size: {"wall": 0.0, "reads": 0, "posting_reads": 0}
        for size in block_sizes
    }
    pp_series = {"Join-Inv-Blocks": []}
    block1_series = {"Join-Inv-Blocks": []}
    for kind, x in points:
        kw = {"threshold": x} if kind == "petj" else {"k": x}
        baseline, pp_reads, pp_tags, wall = run_point_per_probe(
            index, outer, scale.pool_size, **kw
        )
        per_probe["wall"] += wall
        per_probe["reads"] += pp_reads
        per_probe["posting_reads"] += pp_tags.get("postings", 0)
        pp_series["Join-Inv-Blocks"].append(
            _series_point(float(x), pp_reads, pp_tags, baseline, sample)
        )
        for size in block_sizes:
            pairs, reads, tags, wall = run_point_blocked(
                relation, index, outer, scale.pool_size, size, **kw
            )
            blocked[size]["wall"] += wall
            blocked[size]["reads"] += reads
            blocked[size]["posting_reads"] += tags.get("postings", 0)
            if _pair_key(pairs) != _pair_key(baseline):
                raise AssertionError(
                    f"block={size} pairs diverge on {kind} @ {x}"
                )
            if size == 1:
                if reads != pp_reads:
                    raise AssertionError(
                        f"block=1 reads {reads} != per-probe {pp_reads} "
                        f"on {kind} @ {x}"
                    )
                block1_series["Join-Inv-Blocks"].append(
                    _series_point(float(x), reads, tags, pairs, sample)
                )

    payload = {
        "config": {
            "scale": args.scale,
            "strategy": STRATEGY,
            "pool_size": scale.pool_size,
            "outer_tuples": sample,
            "thresholds": list(THRESHOLDS),
            "top_k": args.top_k,
            "block_sizes": block_sizes,
        },
        "per_probe": {
            "wall_clock_seconds": round(per_probe["wall"], 4),
            "reads": per_probe["reads"],
            "posting_reads": per_probe["posting_reads"],
        },
        "blocked": {},
    }
    for size in block_sizes:
        stats = blocked[size]
        payload["blocked"][str(size)] = {
            "wall_clock_seconds": round(stats["wall"], 4),
            "reads": stats["reads"],
            "posting_reads": stats["posting_reads"],
            "speedup": round(per_probe["wall"] / stats["wall"], 3)
            if stats["wall"] > 0
            else None,
            "read_savings": round(
                1.0 - stats["reads"] / per_probe["reads"], 4
            )
            if per_probe["reads"]
            else 0.0,
            "posting_read_savings": round(
                1.0 - stats["posting_reads"] / per_probe["posting_reads"], 4
            )
            if per_probe["posting_reads"]
            else 0.0,
        }
        print(
            f"block={size:3d}: wall={stats['wall']:.3f}s "
            f"(speedup {payload['blocked'][str(size)]['speedup']}x)  "
            f"reads={stats['reads']} "
            f"posting_savings="
            f"{payload['blocked'][str(size)]['posting_read_savings']:.1%}"
        )
    print(
        f"per-probe: wall={per_probe['wall']:.3f}s "
        f"reads={per_probe['reads']} "
        f"posting_reads={per_probe['posting_reads']}"
    )

    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_abl_join_blocks.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    _write_compare_dir(results_dir / "perprobe", pp_series, 1)
    if 1 in block_sizes:
        _write_compare_dir(results_dir / "block1", block1_series, 1)

    failures = []
    gate = 16 if 16 in block_sizes else block_sizes[-1]
    stats = payload["blocked"][str(gate)]
    if args.assert_speedup is not None and (
        stats["speedup"] is None or stats["speedup"] < args.assert_speedup
    ):
        failures.append(
            f"block={gate} speedup {stats['speedup']} "
            f"< required {args.assert_speedup}"
        )
    if (
        args.assert_io_savings is not None
        and stats["posting_read_savings"] < args.assert_io_savings
    ):
        failures.append(
            f"block={gate} posting-read savings "
            f"{stats['posting_read_savings']:.1%} "
            f"< required {args.assert_io_savings:.1%}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
