"""Differential suite: block joins are answer-identical to per-probe joins.

Hypothesis draws thresholds / k values; each join runs as a nested loop
(naive inner), as an index-nested-loop (legacy per-probe), and through
:class:`repro.exec.BlockJoinExecutor` at block sizes 1, 4, and 7.  Every
configuration must reproduce the same pair list — left tid, right tid,
bit-exact score, and order, ties included.  DSTJ is exercised under all
three divergences; one test repeats the comparison with fault injection
enabled and asserts the engine's pin hygiene survives the retry paths.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import joins
from repro.exec import BlockJoinExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.pdrtree import PDRTree
from repro.storage import BufferPool
from repro.storage.faults import FaultPlan, fault_plan

from tests.invindex.conftest import random_relation

POOL_SIZE = 100
BLOCK_SIZES = (1, 4, 7)


@pytest.fixture(scope="module")
def dataset():
    right = random_relation(160, 12, seed=83)
    outer = random_relation(36, 12, seed=19)
    index = ProbabilisticInvertedIndex(len(right.domain))
    index.build(right)
    tree = PDRTree(len(right.domain))
    tree.build(right)
    return outer, right, index, tree


def _snap(result):
    return [(p.left_tid, p.right_tid, p.score) for p in result]


def _fresh(executor_index):
    if executor_index is not None:
        executor_index.pool = BufferPool(executor_index.disk, POOL_SIZE)


def _legacy(kind, outer, right, right_index, **kw):
    _fresh(right_index)
    if kind == "petj":
        return joins.petj(outer, right, kw["threshold"], right_index=right_index)
    if kind == "pej_top_k":
        return joins.pej_top_k(outer, right, kw["k"], right_index=right_index)
    return joins.dstj(
        outer,
        right,
        kw["threshold"],
        divergence=kw.get("divergence", "l1"),
        right_index=right_index,
    )


def _blocked(kind, outer, right, right_index, block, **kw):
    _fresh(right_index)
    engine = BlockJoinExecutor(right, right_index, block_size=block)
    if kind == "petj":
        return engine.petj(outer, kw["threshold"])
    if kind == "pej_top_k":
        return engine.pej_top_k(outer, kw["k"])
    return engine.dstj(outer, kw["threshold"], kw.get("divergence", "l1"))


def _assert_all_protocols_agree(kind, outer, right, inners, **kw):
    """Nested loop, per-probe indexed, and every block size agree."""
    baseline = _snap(_legacy(kind, outer, right, None, **kw))
    for inner in inners:
        legacy = _snap(_legacy(kind, outer, right, inner, **kw))
        assert legacy == baseline, f"{kind}: legacy indexed diverges"
        for block in BLOCK_SIZES:
            got = _snap(_blocked(kind, outer, right, inner, block, **kw))
            assert got == baseline, f"{kind}: block={block} diverges"
    for block in BLOCK_SIZES:
        got = _snap(_blocked(kind, outer, right, None, block, **kw))
        assert got == baseline, f"{kind}: naive block={block} diverges"


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(threshold=st.floats(0.05, 0.9))
def test_petj_agreement(dataset, threshold):
    outer, right, index, _ = dataset
    _assert_all_protocols_agree(
        "petj", outer, right, [index], threshold=threshold
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(k=st.integers(1, 15))
def test_pej_top_k_agreement(dataset, k):
    outer, right, index, _ = dataset
    _assert_all_protocols_agree("pej_top_k", outer, right, [index], k=k)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    threshold=st.floats(0.0, 1.5),
    divergence=st.sampled_from(["l1", "l2", "kl"]),
)
def test_dstj_agreement(dataset, threshold, divergence):
    outer, right, _, tree = dataset
    # The inverted index rejects similarity probes, so the indexed inner
    # for DSTJ is the PDR-tree.
    _assert_all_protocols_agree(
        "dstj", outer, right, [tree], threshold=threshold, divergence=divergence
    )


def test_agreement_under_faults(dataset):
    """Protocol agreement survives recovered read errors, and the engine's
    pinned prefetch pages are always released even on retry paths."""
    outer, right, index, tree = dataset
    plan = FaultPlan(seed=29, read_error_rate=0.03, bit_rot_rate=0.01)
    with fault_plan(plan):
        _assert_all_protocols_agree(
            "petj", outer, right, [index], threshold=0.2
        )
        _assert_all_protocols_agree("pej_top_k", outer, right, [index], k=6)
        _assert_all_protocols_agree(
            "dstj", outer, right, [tree], threshold=0.7, divergence="l1"
        )
        assert index.pool.pinned_page_ids() == []
        assert tree.pool.pinned_page_ids() == []

