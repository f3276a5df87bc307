"""Differential suite: exact-sketch similarity execution vs unfiltered.

``REPRO_SKETCH=exact`` claims *bit-identical* answers — tids, scores,
tie order, and stop reasons — on both index families, every bounded
divergence, and every similarity query shape (DSTQ thresholds,
DSQ-top-k, and DSTJ joins through both the block engine and the legacy
per-probe path).  Hypothesis drives the workloads; one test repeats the
comparison under fault injection, where the CRC/retry machinery must
not perturb the answers either.  Approximate mode never gets identity:
it gets the *subset* guarantee (every reported threshold match is a
true match the unfiltered scan also reports).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
)
from repro.core import joins
from repro.exec import BlockJoinExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.sketch import sketch_override
from repro.storage import BufferPool
from repro.storage.faults import FaultPlan, fault_plan

from tests.invindex.conftest import random_query, random_relation
from tests.sketch.conftest import POOL_SIZE, full_key

DIVERGENCES = ("l1", "l2", "kl", "symmetric_kl")

#: Threshold draw scale per divergence (l1 caps at 2, l2 at sqrt(2),
#: the KL family is unbounded but these cover sparse-vector practice).
THRESHOLD_SCALE = {"l1": 2.0, "l2": 1.2, "kl": 4.0, "symmetric_kl": 4.0}


def _similarity_query(relation, seed, divergence, kind):
    """A random query; a threshold is drawn uniformly over the scale or,
    half the time, at 1-2x one member's distance (where a bound that
    over-estimates would drop a true match)."""
    rng = np.random.default_rng(seed)
    q = random_query(len(relation.domain), seed=seed)
    if kind == "threshold":
        if rng.random() < 0.5:
            threshold = float(rng.uniform(0.0, THRESHOLD_SCALE[divergence]))
        else:
            member = relation.uda_of(int(rng.integers(len(relation))))
            distance = SimilarityThresholdQuery(q, 0.0, divergence).distance(member)
            threshold = distance * float(rng.uniform(1.0, 2.0))
        return SimilarityThresholdQuery(q, threshold, divergence)
    return SimilarityTopKQuery(q, int(rng.integers(1, 13)), divergence)


def _run(index, query, mode):
    index.pool = BufferPool(index.disk, POOL_SIZE)
    before = index.disk.stats.snapshot()
    result = index.execute(query, sketch=mode)
    reads = index.disk.stats.delta_since(before).reads
    return full_key(result), reads


@given(
    seed=st.integers(0, 2**31 - 1),
    divergence=st.sampled_from(DIVERGENCES),
    kind=st.sampled_from(("threshold", "topk")),
)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exact_is_bit_identical_inverted(
    relation, inverted, seed, divergence, kind
):
    query = _similarity_query(relation, seed, divergence, kind)
    off, _ = _run(inverted, query, "off")
    exact, _ = _run(inverted, query, "exact")
    assert exact == off


@given(
    seed=st.integers(0, 2**31 - 1),
    divergence=st.sampled_from(DIVERGENCES),
    kind=st.sampled_from(("threshold", "topk")),
)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exact_is_bit_identical_pdr(relation, pdr, seed, divergence, kind):
    query = _similarity_query(relation, seed, divergence, kind)
    off, _ = _run(pdr, query, "off")
    exact, _ = _run(pdr, query, "exact")
    assert exact == off


@given(
    seed=st.integers(0, 2**31 - 1),
    divergence=st.sampled_from(DIVERGENCES),
)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_families_agree_under_exact(relation, inverted, pdr, seed, divergence):
    """Both families must converge on the same exact answers.

    Matches only: stop reasons are an engine-level detail (the tree's
    similarity scan reports its own), asserted per-family above.
    """
    query = _similarity_query(relation, seed, divergence, "threshold")
    (inv_matches, _), _ = _run(inverted, query, "exact")
    (tree_matches, _), _ = _run(pdr, query, "exact")
    assert inv_matches == tree_matches


@given(seed=st.integers(0, 2**31 - 1), divergence=st.sampled_from(DIVERGENCES))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_approx_threshold_answers_are_a_subset(
    relation, inverted, seed, divergence
):
    """Approx verifies candidates exactly, so while it may *miss*
    matches, it can never report a false one — and never a wrong
    score."""
    query = _similarity_query(relation, seed, divergence, "threshold")
    (off_matches, _), _ = _run(inverted, query, "off")
    (approx_matches, _), _ = _run(inverted, query, "approx")
    assert set(approx_matches) <= set(off_matches)


def test_exact_is_bit_identical_under_faults():
    """Fault injection (CRC failures + retries) must not perturb the
    differential: both modes recover to the same answers."""
    plan = FaultPlan(seed=5, read_error_rate=0.02)
    with fault_plan(plan):
        relation = random_relation(120, 30, seed=17)
        index = ProbabilisticInvertedIndex(len(relation.domain))
        index.build(relation)
        index.build_sketch()
        for seed in range(6):
            for kind in ("threshold", "topk"):
                query = _similarity_query(relation, 400 + seed, "l1", kind)
                off, _ = _run(index, query, "off")
                exact, _ = _run(index, query, "exact")
                assert exact == off


# -- DSTJ -----------------------------------------------------------------


@pytest.fixture(scope="module")
def join_dataset():
    right = random_relation(120, 30, seed=83)
    outer = random_relation(18, 30, seed=19)
    index = ProbabilisticInvertedIndex(len(right.domain))
    index.build(right)
    index.build_sketch()
    return outer, right, index


def _join_key(result):
    return [(p.left_tid, p.right_tid, p.score) for p in result]


@pytest.mark.parametrize("divergence", ("l1", "l2", "kl"))
def test_dstj_block_engine_exact_matches_off(join_dataset, divergence):
    outer, right, index = join_dataset
    keys = {}
    for mode in ("off", "exact"):
        with sketch_override(mode):
            index.pool = BufferPool(index.disk, POOL_SIZE)
            engine = BlockJoinExecutor(right, index, block_size=4)
            keys[mode] = _join_key(engine.dstj(outer, 0.9, divergence))
    assert keys["exact"] == keys["off"]


@pytest.mark.parametrize("divergence", ("l1", "l2", "kl"))
def test_dstj_legacy_path_exact_matches_off(join_dataset, divergence):
    outer, right, index = join_dataset
    keys = {}
    for mode in ("off", "exact"):
        with sketch_override(mode):
            index.pool = BufferPool(index.disk, POOL_SIZE)
            keys[mode] = _join_key(
                joins.dstj(
                    outer,
                    right,
                    0.9,
                    divergence=divergence,
                    right_index=index,
                )
            )
    assert keys["exact"] == keys["off"]
