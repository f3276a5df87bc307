#!/usr/bin/env python
"""Ablation: sketch pre-filtering for similarity queries.

Usage::

    python benchmarks/bench_abl_sketch.py [results_dir]
        [--quick] [--tuples N] [--queries-per-point N]
        [--bands B [B ...]] [--assert-recall R] [--trace PATH]

Runs a similarity workload — DSTQ threshold probes and DSQ-top-k, over
l1/l2/KL — whose queries are *perturbed copies of stored tuples*
(same support, jittered probabilities), the regime sketch pre-filtering
targets: most of the relation is provably far from the query, and the
LSH candidate generator can actually find the near-duplicates.  The
dataset is a clustered variant of the paper's sparse **Gen3** family
(grouped supports over a 100-item domain, bounded group sizes, tuples
stored group-contiguously): support sets genuinely differ across
tuples — which is what both the fingerprint deficit bound and MinHash
banding key on — and a query's few true neighbors share heap pages, so
pruning converts directly into skipped reads.  (The paper's dense
Uniform dataset is the sketch's worst case — every tuple spans the
whole 5-item domain, so no support-based filter can separate anything
there.)

Legs, per divergence and query kind:

* **off** — the unfiltered scan via
  :func:`repro.bench.harness.measure_query` (fresh 100-frame pool per
  query).  Its answers define correctness; its reads are the baseline;
* **exact** — the same queries under ``REPRO_SKETCH=exact``.  Gated
  *bit-identical* (tids, scores, tie order) and, summed over the
  inverted-index workload, **strictly fewer total physical reads** —
  the sketch scan plus surviving verifications must undercut the full
  heap scan, or the pre-filter has no reason to exist;
* **pdr off/exact** — the same differential on the PDR-tree (identity
  gate only: the tree's leaf grouping already localizes I/O, so the
  read win is reported, not gated);
* **approx** at each ``--bands`` setting — LSH-only candidates;
  *measured recall* against the off answers plus the read savings, the
  recall/IO trade-off curve (docs/sketch-prefilter.md).  ``--assert-recall R``
  gates recall at the *default* band count (CI's recall floor).

Outputs, under ``results_dir``:

* ``BENCH_abl_sketch.json`` — per-(divergence, kind) read totals, gate
  verdicts, and the recall curve;
* ``measure_off/`` and ``measure_exact/`` — compare_io.py result dirs
  from the two exact-answer legs.  Their summaries declare
  ``sketch: "off"`` / ``"exact"``, so compare_io *refuses* to diff them
  against each other (reads legally differ across modes) while CI diffs
  each against its committed golden.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import IndexUnderTest, measure_query
from repro.core.domain import CategoricalDomain
from repro.core.relation import UncertainRelation
from repro.core.queries import SimilarityThresholdQuery, SimilarityTopKQuery
from repro.core.uda import UncertainAttribute
from repro.exec import ExecContext
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.obs.trace import tracing_to_path
from repro.pdrtree.tree import PDRTree
from repro.sketch import SketchParams, sketch_override

#: Divergences with sound sketch lower bounds (repro.sketch.bounds).
DIVERGENCES = ("l1", "l2", "kl")

#: Fixed DSTQ thresholds: tight enough that a perturbed-copy query
#: matches its source tuple and near-duplicates (mostly same-group
#: tuples) only, the selective regime where pruning pays.  Tuples from
#: disjoint Gen3 groups sit at l1 = 2 exactly.
THRESHOLDS = {"l1": 0.35, "l2": 0.2, "kl": 0.8}

#: Gen3-style domain size: large enough that group supports rarely
#: coincide.
DOMAIN_SIZE = 100

#: Mean tuples per support group — bounded (unlike gen3_dataset, whose
#: group population scales with the relation), so a query's candidate
#: set stays a handful of pages at any --tuples.
GROUP_MEMBERS = 12


def _grouped_dataset(num_tuples, seed):
    """Gen3-style grouped supports, stored group-contiguously.

    Like :func:`repro.datagen.synthetic.gen3_dataset`, item groups are
    sampled from the domain with geometric sizes and each tuple spreads
    random probabilities over its group.  Two deliberate differences:
    the number of groups scales with the relation (mean
    :data:`GROUP_MEMBERS` tuples each), and tuples are appended
    group-by-group — clustered storage, the common case for data that
    arrives in runs (per customer, per day, per source).
    """
    rng = np.random.default_rng(seed)
    domain = CategoricalDomain.of_size(DOMAIN_SIZE)
    relation = UncertainRelation(domain, name=f"GroupedGen3-{num_tuples}")
    num_groups = max(8, num_tuples // GROUP_MEMBERS)
    groups = []
    for _ in range(num_groups):
        # Support sizes bounded to [8, 16]: large enough that every
        # group holds top-k answers and heap records dominate sketch
        # records, small enough that the 64-bit fingerprint stays
        # sparse (<= 25% of bits set, so Bloom false positives rarely
        # stack high enough to defeat the deficit bound).
        size = max(8, min(int(rng.geometric(1.0 / 12)), 16))
        groups.append(
            np.sort(rng.choice(DOMAIN_SIZE, size=size, replace=False))
        )
    counts = rng.multinomial(
        num_tuples, np.full(num_groups, 1.0 / num_groups)
    )
    for group, count in zip(groups, counts.tolist()):
        for _ in range(count):
            # Concentrated Dirichlet (alpha = 5): every group member is
            # a near-duplicate distribution over the shared support, so
            # a group is a cluster of genuinely-similar tuples.  Flat
            # in-support mass also makes the fingerprint deficit bound
            # *collision-robust*: no single item carries enough mass for
            # one Bloom false-positive bit to drag the bound below a
            # selective threshold (each colliding item forfeits only
            # ~1/|support| of the deficit).
            probs = rng.dirichlet(np.full(len(group), 5.0))
            relation.append(UncertainAttribute(group, probs))
    return relation

TOP_K = 5

DEFAULT_TUPLES = 6000
DEFAULT_BANDS = (8, 16, 32)

#: The sweep's band default — SketchParams().bands — is the setting CI
#: gates recall at.
DEFAULT_BAND_SETTING = SketchParams().bands


def _perturbed_queries(relation, count, seed):
    """Similarity probes: stored tuples with jittered probabilities.

    The support set is preserved (MinHash signatures depend only on
    support, so the source tuple is always LSH-reachable); only the
    masses move, by a bounded multiplicative jitter.
    """
    rng = np.random.default_rng(seed)
    tids = rng.choice(len(relation), size=count, replace=False)
    queries = []
    for tid in tids.tolist():
        uda = relation.uda_of(tid)
        probs = np.asarray(uda.probs, dtype=np.float64)
        jitter = rng.uniform(0.7, 1.3, size=len(probs))
        probs = probs * jitter
        probs = probs / probs.sum()
        queries.append(
            UncertainAttribute(
                [int(item) for item in uda.items],
                [float(p) for p in probs],
            )
        )
    return queries


def _answers(result):
    return [(m.tid, m.score) for m in result.matches]


def _measure_leg(under, queries, pool_size, mode):
    """Measure every query under one sketch mode; return leg + answers."""
    reads, tags, sizes, answers = [], [], [], []
    started = time.perf_counter()
    with sketch_override(mode):
        for query in queries:
            measured = measure_query(under, query, pool_size)
            reads.append(measured.reads)
            tags.append(dict(measured.reads_by_tag))
            sizes.append(measured.result_size)
            answers.append(_answers(under.execute(query)))
    wall = time.perf_counter() - started
    total_tags = {}
    for per_query in tags:
        for tag, count in per_query.items():
            total_tags[tag] = total_tags.get(tag, 0) + count
    leg = {
        "reads": sum(reads),
        "reads_by_tag": total_tags,
        "wall_clock_seconds": round(wall, 4),
    }
    return leg, answers, (reads, tags, sizes)


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


def _recall(off_answers, approx_answers):
    """Mean per-query recall of the off answers' tids."""
    recalls = []
    for off, approx in zip(off_answers, approx_answers):
        want = {tid for tid, _ in off}
        if not want:
            continue
        got = {tid for tid, _ in approx}
        recalls.append(len(want & got) / len(want))
    return round(sum(recalls) / len(recalls), 4) if recalls else 1.0


def _write_measure_dir(directory, series, sketch_mode):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_abl_sketch_points.json").write_text(
        json.dumps({"series": series}, indent=2) + "\n"
    )
    summary = {
        **ExecContext.capture().protocol(),
        "batch": 1,
        "mode": "measure",
        "shards": 1,
        "transport": "local",
        "sketch": sketch_mode,
    }
    (directory / "BENCH_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )


def _run(args, pool_size):
    relation = _grouped_dataset(args.tuples, seed=7)
    probes = _perturbed_queries(relation, args.queries_per_point, seed=23)

    inverted = ProbabilisticInvertedIndex(len(relation.domain))
    inverted.build(relation)
    inverted.build_sketch()
    tree = PDRTree(len(relation.domain))
    tree.build(relation)
    tree.build_sketch()

    violations = []
    rows = []
    off_series = {}
    exact_series = {}
    for divergence in DIVERGENCES:
        for kind in ("threshold", "topk"):
            if kind == "threshold":
                queries = [
                    SimilarityThresholdQuery(
                        q, THRESHOLDS[divergence], divergence
                    )
                    for q in probes
                ]
            else:
                queries = [
                    SimilarityTopKQuery(q, TOP_K, divergence)
                    for q in probes
                ]
            label = f"sim-{divergence}-{kind}"
            inv_under = IndexUnderTest(label, inverted)
            off, off_answers, off_points = _measure_leg(
                inv_under, queries, pool_size, "off"
            )
            exact, exact_answers, exact_points = _measure_leg(
                inv_under, queries, pool_size, "exact"
            )
            if exact_answers != off_answers:
                violations.append(f"exact answers diverge: inverted {label}")
            if exact["reads"] >= off["reads"]:
                violations.append(
                    f"exact reads {exact['reads']} not strictly below "
                    f"off {off['reads']}: inverted {label}"
                )
            if exact["reads_by_tag"].get("sketch", 0) <= 0:
                violations.append(
                    f"no reads under the 'sketch' tag: inverted {label}"
                )
            off_series[label] = [_series_point(0.0, *off_points)]
            exact_series[label] = [_series_point(0.0, *exact_points)]

            pdr_under = IndexUnderTest(f"pdr-{label}", tree)
            pdr_off, pdr_off_answers, _ = _measure_leg(
                pdr_under, queries, pool_size, "off"
            )
            pdr_exact, pdr_exact_answers, _ = _measure_leg(
                pdr_under, queries, pool_size, "exact"
            )
            if pdr_exact_answers != pdr_off_answers:
                violations.append(f"exact answers diverge: pdr {label}")
            if pdr_off_answers != off_answers:
                violations.append(
                    f"pdr answers diverge from inverted: {label}"
                )

            approx_legs = []
            for bands in sorted(set(args.bands)):
                inverted.build_sketch(SketchParams(bands=bands))
                approx, approx_answers, _ = _measure_leg(
                    inv_under, queries, pool_size, "approx"
                )
                approx_legs.append(
                    {
                        "bands": bands,
                        "reads": approx["reads"],
                        "recall": _recall(off_answers, approx_answers),
                    }
                )
            inverted.build_sketch()  # restore default-band sketch

            rows.append(
                {
                    "divergence": divergence,
                    "kind": kind,
                    "off": off,
                    "exact": exact,
                    "pdr_off": pdr_off,
                    "pdr_exact": pdr_exact,
                    "approx": approx_legs,
                }
            )
            approx_text = " ".join(
                f"b{leg['bands']}:r={leg['recall']}/io={leg['reads']}"
                for leg in approx_legs
            )
            print(
                f"{label}: off={off['reads']} exact={exact['reads']} "
                f"(sketch={exact['reads_by_tag'].get('sketch', 0)}) "
                f"pdr {pdr_off['reads']}->{pdr_exact['reads']} | "
                f"approx {approx_text}"
            )
    return rows, off_series, exact_series, violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Sketch pre-filtering ablation."
    )
    parser.add_argument(
        "results_dir",
        nargs="?",
        type=Path,
        default=Path("benchmarks/results/abl_sketch"),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the relation and workload to CI scale",
    )
    parser.add_argument("--tuples", type=int, default=DEFAULT_TUPLES)
    parser.add_argument(
        "--queries-per-point",
        type=int,
        default=6,
        help="similarity probes per (divergence, kind) cell",
    )
    parser.add_argument(
        "--bands", type=int, nargs="+", default=list(DEFAULT_BANDS)
    )
    parser.add_argument(
        "--assert-recall",
        type=float,
        default=None,
        metavar="R",
        help="fail unless approx recall at the default band count "
        f"({DEFAULT_BAND_SETTING}) is >= R in every cell",
    )
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.tuples = min(args.tuples, 1500)
        args.queries_per_point = min(args.queries_per_point, 3)

    pool_size = 100  # the paper's measurement pool
    print(
        f"tuples={args.tuples} "
        f"queries_per_point={args.queries_per_point} "
        f"bands={sorted(set(args.bands))}"
    )
    if args.trace is not None:
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        with tracing_to_path(args.trace):
            rows, off_series, exact_series, violations = _run(
                args, pool_size
            )
        print(f"trace written to {args.trace}")
    else:
        rows, off_series, exact_series, violations = _run(args, pool_size)

    if args.assert_recall is not None:
        for row in rows:
            for leg in row["approx"]:
                if (
                    leg["bands"] == DEFAULT_BAND_SETTING
                    and leg["recall"] < args.assert_recall
                ):
                    violations.append(
                        f"approx recall {leg['recall']} < required "
                        f"{args.assert_recall} at default bands: "
                        f"{row['divergence']}-{row['kind']}"
                    )

    if violations:
        for violation in violations[:20]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        print(f"FAIL: {len(violations)} gate violations", file=sys.stderr)
        return 1

    payload = {
        "config": {
            "tuples": args.tuples,
            "queries_per_point": args.queries_per_point,
            "divergences": list(DIVERGENCES),
            "thresholds": dict(THRESHOLDS),
            "top_k": TOP_K,
            "bands": sorted(set(args.bands)),
            "pool_size": pool_size,
        },
        "rows": rows,
        "violations": 0,
    }
    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_abl_sketch.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    _write_measure_dir(results_dir / "measure_off", off_series, "off")
    _write_measure_dir(results_dir / "measure_exact", exact_series, "exact")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
