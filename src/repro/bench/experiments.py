"""Experiment definitions for every figure in the paper's evaluation.

Each ``figureN`` function reproduces the corresponding figure of
Section 4 as an :class:`~repro.bench.harness.ExperimentResult` (series of
mean disk-I/Os per query).  The ``ablation_*`` functions go beyond the
paper: strategy shoot-outs, MBR compression, insert policies, and buffer
sensitivity (see DESIGN.md, "Ablations").

Scale is controlled by :class:`ExperimentScale`; the paper's full sizes
(100 k CRM tuples) are available via ``ExperimentScale.paper()`` or
``REPRO_SCALE=paper``, while the default keeps datasets large enough to
show every trend yet fast enough for CI.  Datasets and built indexes are
cached per (kind, size, seed, configuration) within the process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from repro.bench.harness import (
    ExperimentResult,
    IndexUnderTest,
    SeriesPoint,
    measure_point,
)
from repro.core.exceptions import QueryError
from repro.core.relation import UncertainRelation
from repro.datagen.crm import crm1_dataset, crm2_dataset
from repro.datagen.synthetic import (
    gen3_dataset,
    pairwise_dataset,
    uniform_dataset,
    zipf_dataset,
)
from repro.datagen.workload import CalibratedQuery, build_workload
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.pdrtree.tree import PDRTree, PDRTreeConfig


@dataclass(frozen=True)
class ExperimentScale:
    """Dataset/workload sizes for one experiment run."""

    crm_tuples: int
    synth_tuples: int
    queries_per_point: int
    selectivities: tuple[float, ...]
    fig8_sizes: tuple[int, ...]
    fig9_domains: tuple[int, ...]
    fixed_selectivity: float = 0.01
    pool_size: int = 100
    seed: int = 7

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Seconds-per-figure scale for tests and CI."""
        return cls(
            crm_tuples=2_500,
            synth_tuples=3_000,
            queries_per_point=3,
            selectivities=(0.001, 0.01, 0.1),
            fig8_sizes=(1_000, 2_000, 4_000),
            fig9_domains=(10, 50, 100),
        )

    @classmethod
    def default(cls) -> "ExperimentScale":
        """The benchmark default: every paper trend, minutes per figure."""
        return cls(
            crm_tuples=20_000,
            synth_tuples=10_000,
            queries_per_point=8,
            selectivities=(0.0001, 0.001, 0.01, 0.1),
            fig8_sizes=(5_000, 10_000, 20_000, 40_000),
            fig9_domains=(10, 25, 50, 100, 250, 500),
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's sizes (100 k CRM tuples; slow in pure Python)."""
        return cls(
            crm_tuples=100_000,
            synth_tuples=10_000,
            queries_per_point=10,
            selectivities=(0.0001, 0.001, 0.01, 0.1),
            fig8_sizes=(10_000, 25_000, 50_000, 75_000, 100_000),
            fig9_domains=(5, 10, 50, 100, 250, 500),
        )

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Pick a preset from ``REPRO_SCALE`` (quick/default/paper)."""
        name = os.environ.get("REPRO_SCALE", "quick").lower()
        presets = {
            "quick": cls.quick,
            "default": cls.default,
            "paper": cls.paper,
        }
        if name not in presets:
            raise QueryError(
                f"REPRO_SCALE must be one of {sorted(presets)}, got {name!r}"
            )
        return presets[name]()


# ---------------------------------------------------------------------------
# Cached datasets, workloads, and index builds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _dataset(kind: str, num_tuples: int, domain_size: int, seed: int) -> UncertainRelation:
    if kind == "crm1":
        return crm1_dataset(num_tuples=num_tuples, seed=seed)
    if kind == "crm2":
        return crm2_dataset(num_tuples=num_tuples, seed=seed)
    if kind == "uniform":
        return uniform_dataset(num_tuples=num_tuples, seed=seed)
    if kind == "pairwise":
        return pairwise_dataset(num_tuples=num_tuples, seed=seed)
    if kind == "gen3":
        return gen3_dataset(
            num_tuples=num_tuples, domain_size=domain_size, seed=seed
        )
    if kind.startswith("zipf"):
        # kind encodes the skew: "zipf1.4" -> exponent 1.4.
        skew = float(kind.removeprefix("zipf"))
        return zipf_dataset(num_tuples=num_tuples, skew=skew, seed=seed)
    raise QueryError(f"unknown dataset kind {kind!r}")


_DatasetKey = tuple[str, int, int, int]


@lru_cache(maxsize=64)
def _workload(
    key: _DatasetKey,
    selectivities: tuple[float, ...],
    queries_per_point: int,
    seed: int,
) -> dict[float, list[CalibratedQuery]]:
    return build_workload(
        _dataset(*key),
        selectivities=selectivities,
        queries_per_point=queries_per_point,
        seed=seed,
    )


@lru_cache(maxsize=32)
def _inverted(key: _DatasetKey) -> ProbabilisticInvertedIndex:
    relation = _dataset(*key)
    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    return index


@lru_cache(maxsize=32)
def _pdr(
    key: _DatasetKey,
    insert_policy: str = "hybrid",
    split_strategy: str = "bottom_up",
    divergence: str = "kl",
    fold_size: int | None = None,
    bits: int | None = None,
) -> PDRTree:
    relation = _dataset(*key)
    config = PDRTreeConfig(
        insert_policy=insert_policy,
        split_strategy=split_strategy,
        divergence=divergence,
        fold_size=fold_size,
        bits=bits,
    )
    tree = PDRTree(len(relation.domain), config=config)
    tree.build(relation)
    return tree


def clear_caches() -> None:
    """Drop every cached dataset and index (frees memory between runs)."""
    _dataset.cache_clear()
    _workload.cache_clear()
    _inverted.cache_clear()
    _pdr.cache_clear()


def _sweep(
    result: ExperimentResult,
    under_test: IndexUnderTest,
    workload: dict[float, list[CalibratedQuery]],
    kinds: tuple[str, ...],
    pool_size: int,
    suffix: dict[str, str] | None = None,
) -> None:
    """Measure ``under_test`` over a selectivity workload, both kinds."""
    labels = suffix or {"threshold": "Thres", "topk": "TopK"}
    for kind in kinds:
        for selectivity, queries in workload.items():
            point = measure_point(
                under_test,
                queries,
                kind,
                x=selectivity * 100.0,  # percent, like the paper's x-axis
                pool_size=pool_size,
            )
            result.add_point(f"{under_test.name}-{labels[kind]}", point)


# ---------------------------------------------------------------------------
# Figures 4-10
# ---------------------------------------------------------------------------

def figure4(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Figure 4 — L1 vs L2 vs KL as the PDR-tree clustering measure (CRM1).

    Paper finding: for low selectivities KL clearly outperforms L1, which
    outperforms L2; top-k costs a roughly constant factor over threshold.
    """
    scale = scale or ExperimentScale.from_env()
    key = ("crm1", scale.crm_tuples, 0, scale.seed)
    workload = _workload(
        key, scale.selectivities, scale.queries_per_point, scale.seed
    )
    result = ExperimentResult("Figure 4: L1 vs L2 vs KL (PDR-tree, CRM1)", "selectivity %")
    for divergence in ("l1", "l2", "kl"):
        # The figure compares the *similarity measures*, so similarity is
        # the primary insert criterion for these trees.
        tree = _pdr(key, divergence=divergence, insert_policy="most_similar")
        under_test = IndexUnderTest(f"CRM1-{divergence.upper()}", tree)
        _sweep(result, under_test, workload, ("topk", "threshold"), scale.pool_size)
    return result


def _structure_comparison(
    name: str,
    dataset_kinds: tuple[str, ...],
    num_tuples: int,
    scale: ExperimentScale,
) -> ExperimentResult:
    result = ExperimentResult(name, "selectivity %")
    for kind in dataset_kinds:
        key = (kind, num_tuples, 0, scale.seed)
        workload = _workload(
            key, scale.selectivities, scale.queries_per_point, scale.seed
        )
        pretty = kind.capitalize() if not kind.startswith("crm") else kind.upper()
        inverted = IndexUnderTest(f"{pretty}-Inv", _inverted(key), "highest_prob_first")
        pdr = IndexUnderTest(f"{pretty}-PDR", _pdr(key))
        _sweep(result, inverted, workload, ("threshold", "topk"), scale.pool_size)
        _sweep(result, pdr, workload, ("threshold", "topk"), scale.pool_size)
    return result


def figure5(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Figure 5 — inverted index vs PDR-tree on Uniform and Pairwise.

    Paper finding: the PDR-tree wins on Uniform (dense tuples touch many
    lists); the inverted index does much better on Pairwise but the
    PDR-tree still wins.
    """
    scale = scale or ExperimentScale.from_env()
    return _structure_comparison(
        "Figure 5: Inverted Index vs PDR-tree (synthetic)",
        ("uniform", "pairwise"),
        scale.synth_tuples,
        scale,
    )


def figure6(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Figure 6 — inverted index vs PDR-tree on CRM1 (sparse).

    Paper finding: the PDR-tree significantly outperforms the inverted
    index; CRM1 costs are roughly 10x below CRM2's (Figure 7).
    """
    scale = scale or ExperimentScale.from_env()
    return _structure_comparison(
        "Figure 6: Inverted Index vs PDR-tree (CRM1)",
        ("crm1",),
        scale.crm_tuples,
        scale,
    )


def figure7(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Figure 7 — inverted index vs PDR-tree on CRM2 (dense)."""
    scale = scale or ExperimentScale.from_env()
    return _structure_comparison(
        "Figure 7: Inverted Index vs PDR-tree (CRM2)",
        ("crm2",),
        scale.crm_tuples,
        scale,
    )


def figure8(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Figure 8 — scalability with dataset size (CRM2, 10k-100k tuples).

    Paper finding: the inverted index scales linearly with dataset size,
    the PDR-tree sub-linearly.  x is thousands of tuples; queries are
    fixed at ``scale.fixed_selectivity``.
    """
    scale = scale or ExperimentScale.from_env()
    result = ExperimentResult(
        "Figure 8: Scalability with Dataset Size (CRM2)", "tuples (x1000)"
    )
    for num_tuples in scale.fig8_sizes:
        key = ("crm2", num_tuples, 0, scale.seed)
        workload = _workload(
            key, (scale.fixed_selectivity,), scale.queries_per_point, scale.seed
        )
        queries = workload[scale.fixed_selectivity]
        x = num_tuples / 1000.0
        for under_test in (
            IndexUnderTest("CRM2-Inv", _inverted(key), "highest_prob_first"),
            IndexUnderTest("CRM2-PDR", _pdr(key)),
        ):
            for kind, label in (("threshold", "Thres"), ("topk", "TopK")):
                point = measure_point(
                    under_test, queries, kind, x=x, pool_size=scale.pool_size
                )
                result.add_point(f"{under_test.name}-{label}", point)
    return result


def figure9(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Figure 9 — scalability with domain size (Gen3, 5-500 items).

    Paper finding: the inverted index *improves* as the domain grows
    (shorter lists); the PDR-tree rises then falls across the sweep.
    """
    scale = scale or ExperimentScale.from_env()
    result = ExperimentResult(
        "Figure 9: Scalability with Domain Size (Gen3)", "domain size"
    )
    for domain_size in scale.fig9_domains:
        key = ("gen3", scale.synth_tuples, domain_size, scale.seed)
        workload = _workload(
            key, (scale.fixed_selectivity,), scale.queries_per_point, scale.seed
        )
        queries = workload[scale.fixed_selectivity]
        for under_test in (
            IndexUnderTest("Gen3-Inv", _inverted(key), "highest_prob_first"),
            IndexUnderTest("Gen3-PDR", _pdr(key)),
        ):
            for kind, label in (("threshold", "Thres"), ("topk", "TopK")):
                point = measure_point(
                    under_test,
                    queries,
                    kind,
                    x=float(domain_size),
                    pool_size=scale.pool_size,
                )
                result.add_point(f"{under_test.name}-{label}", point)
    return result


def figure10(scale: ExperimentScale | None = None) -> ExperimentResult:
    """Figure 10 — top-down vs bottom-up PDR split (Uniform, threshold).

    Paper finding: bottom-up outperforms top-down, whose seeds suffer
    from outliers.
    """
    scale = scale or ExperimentScale.from_env()
    key = ("uniform", scale.synth_tuples, 0, scale.seed)
    workload = _workload(
        key, scale.selectivities, scale.queries_per_point, scale.seed
    )
    result = ExperimentResult(
        "Figure 10: PDR Split Algorithm (Uniform)", "selectivity %"
    )
    for split in ("top_down", "bottom_up"):
        tree = _pdr(key, split_strategy=split)
        pretty = "TopDown" if split == "top_down" else "BottomUp"
        under_test = IndexUnderTest(f"Uniform-{pretty}", tree)
        _sweep(result, under_test, workload, ("threshold",), scale.pool_size)
    return result


# ---------------------------------------------------------------------------
# Ablations beyond the paper
# ---------------------------------------------------------------------------

def ablation_strategies(scale: ExperimentScale | None = None) -> ExperimentResult:
    """A1 — the five inverted-index search strategies on CRM1."""
    scale = scale or ExperimentScale.from_env()
    key = ("crm1", scale.crm_tuples, 0, scale.seed)
    workload = _workload(
        key, scale.selectivities, scale.queries_per_point, scale.seed
    )
    result = ExperimentResult(
        "Ablation A1: Inverted-Index Search Strategies (CRM1)",
        "selectivity %",
    )
    index = _inverted(key)
    short = {
        "inv_index_search": "Brute",
        "highest_prob_first": "HPF",
        "row_pruning": "Row",
        "column_pruning": "Col",
        "no_random_access": "NRA",
    }
    for strategy, label in short.items():
        under_test = IndexUnderTest(label, index, strategy)
        _sweep(result, under_test, workload, ("threshold", "topk"), scale.pool_size)
    return result


def ablation_compression(scale: ExperimentScale | None = None) -> ExperimentResult:
    """A2 — MBR compression schemes on the largest Gen3 domain.

    Series report query I/O; the tree sizes (pages) are in
    ``extra_info`` printed by the benchmark.
    """
    scale = scale or ExperimentScale.from_env()
    domain_size = max(scale.fig9_domains)
    key = ("gen3", scale.synth_tuples, domain_size, scale.seed)
    workload = _workload(
        key, (scale.fixed_selectivity,), scale.queries_per_point, scale.seed
    )
    queries = workload[scale.fixed_selectivity]
    result = ExperimentResult(
        f"Ablation A2: MBR Compression (Gen3, |D|={domain_size})",
        "scheme (0=raw 1=bits4 2=fold 3=fold+bits2)",
    )
    variants = [
        ("Raw", None, None),
        ("Disc4", None, 4),
        ("Fold", max(8, domain_size // 8), None),
        ("FoldDisc2", max(8, domain_size // 8), 2),
    ]
    for position, (label, fold_size, bits) in enumerate(variants):
        tree = _pdr(key, fold_size=fold_size, bits=bits)
        under_test = IndexUnderTest(label, tree)
        for kind, kind_label in (("threshold", "Thres"), ("topk", "TopK")):
            point = measure_point(
                under_test,
                queries,
                kind,
                x=float(position),
                pool_size=scale.pool_size,
            )
            result.add_point(f"Gen3-{kind_label}-{label}", point)
    return result


def ablation_insert_policy(scale: ExperimentScale | None = None) -> ExperimentResult:
    """A3 — minimum-area vs most-similar vs hybrid insert policy (CRM1)."""
    scale = scale or ExperimentScale.from_env()
    key = ("crm1", scale.crm_tuples, 0, scale.seed)
    workload = _workload(
        key, scale.selectivities, scale.queries_per_point, scale.seed
    )
    result = ExperimentResult(
        "Ablation A3: PDR Insert Policy (CRM1)", "selectivity %"
    )
    for policy in ("min_area", "most_similar", "hybrid"):
        tree = _pdr(key, insert_policy=policy)
        under_test = IndexUnderTest(f"CRM1-{policy}", tree)
        _sweep(result, under_test, workload, ("threshold",), scale.pool_size)
    return result


def ablation_buffer(scale: ExperimentScale | None = None) -> ExperimentResult:
    """A4 — buffer-pool size sensitivity (CRM2; the paper fixes 100)."""
    scale = scale or ExperimentScale.from_env()
    key = ("crm2", scale.crm_tuples, 0, scale.seed)
    workload = _workload(
        key, (scale.fixed_selectivity,), scale.queries_per_point, scale.seed
    )
    queries = workload[scale.fixed_selectivity]
    result = ExperimentResult(
        "Ablation A4: Buffer Pool Size (CRM2)", "buffer frames"
    )
    for pool_size in (10, 25, 50, 100, 200, 400):
        for under_test in (
            IndexUnderTest("CRM2-Inv", _inverted(key), "highest_prob_first"),
            IndexUnderTest("CRM2-PDR", _pdr(key)),
        ):
            point = measure_point(
                under_test,
                queries,
                "threshold",
                x=float(pool_size),
                pool_size=pool_size,
            )
            result.add_point(f"{under_test.name}-Thres", point)
    return result


def ablation_skew(scale: ExperimentScale | None = None) -> ExperimentResult:
    """A5 — item-popularity skew (Zipf) sensitivity of both structures.

    Skewed data concentrates postings in a few hot lists (hurting the
    inverted index's popular-item queries) while giving the PDR-tree
    natural clusters.
    """
    scale = scale or ExperimentScale.from_env()
    result = ExperimentResult(
        "Ablation A5: Item-Popularity Skew (Zipf)", "zipf exponent"
    )
    for skew in (1.1, 1.5, 2.0, 3.0):
        key = (f"zipf{skew}", scale.synth_tuples, 0, scale.seed)
        workload = _workload(
            key, (scale.fixed_selectivity,), scale.queries_per_point, scale.seed
        )
        queries = workload[scale.fixed_selectivity]
        for under_test in (
            IndexUnderTest("Zipf-Inv", _inverted(key), "highest_prob_first"),
            IndexUnderTest("Zipf-PDR", _pdr(key)),
        ):
            point = measure_point(
                under_test,
                queries,
                "threshold",
                x=skew,
                pool_size=scale.pool_size,
            )
            result.add_point(f"{under_test.name}-Thres", point)
    return result


def ablation_join(scale: ExperimentScale | None = None) -> ExperimentResult:
    """A6 — PETJ execution: nested loop vs index-nested-loop.

    Measures total I/O for a self-join of a Uniform sample through each
    access path (the naive inner scan costs nothing in pages here, so
    the interesting comparison is inverted vs PDR probing).
    """
    from repro.exec.join import BlockJoinExecutor, resolve_join_block
    from repro.storage.buffer import BufferPool
    from repro.storage.stats import MeasureScope

    scale = scale or ExperimentScale.from_env()
    block = resolve_join_block()
    sample = min(scale.synth_tuples, 60)  # outer side of the join
    key = ("uniform", scale.synth_tuples, 0, scale.seed)
    relation = _dataset(*key)
    outer = UncertainRelation(relation.domain, name="outer")
    for tid in range(sample):
        outer.append(relation.uda_of(tid))
    result = ExperimentResult(
        f"Ablation A6: PETJ access paths (Uniform, {sample} outer tuples)",
        "join threshold",
    )
    for threshold in (0.2, 0.3, 0.4):
        for name, index in (
            ("Join-Inv", _inverted(key)),
            ("Join-PDR", _pdr(key)),
        ):
            index.pool = BufferPool(index.disk, scale.pool_size)
            # pool_size=None keeps this shared-pool protocol; at the
            # default block size 1 the engine reads exactly like the
            # per-probe join, so the committed baseline is unchanged.
            engine = BlockJoinExecutor(relation, index, block_size=block)
            with MeasureScope(index.disk) as scope:
                join = engine.petj(outer, threshold)
            result.add_point(
                f"{name}-Thres",
                SeriesPoint(
                    x=threshold,
                    mean_reads=scope.reads / sample,
                    num_queries=sample,
                    mean_result_size=len(join) / sample,
                    total_checksum_failures=scope.stats.checksum_failures,
                    total_faults_injected=scope.stats.faults_injected,
                    # The merged per-probe work counters the join used to
                    # drop (kept out of mean_reads_by_tag, whose committed
                    # baseline for this experiment is empty).
                    probe_stats={
                        "num_probes": join.num_probes,
                        "candidates_examined": join.stats.candidates_examined,
                        "entries_scanned": join.stats.entries_scanned,
                        "nodes_visited": join.stats.nodes_visited,
                        "random_accesses": join.stats.random_accesses,
                    },
                ),
            )
    return result


#: Every experiment by id, for harness drivers and docs.
ALL_EXPERIMENTS = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "abl_strategies": ablation_strategies,
    "abl_compression": ablation_compression,
    "abl_insert_policy": ablation_insert_policy,
    "abl_buffer": ablation_buffer,
    "abl_skew": ablation_skew,
    "abl_join": ablation_join,
}
