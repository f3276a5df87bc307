"""Differential suite: the block kernels against the per-posting reference.

``tests/invindex/reference.py`` keeps the seed's per-posting form of
every strategy, so this suite can execute each strategy twice — once as
shipped, once under :func:`reference_strategies` — over
hypothesis-generated workloads and assert the two agree on *everything*
the I/O model defines: the answer set, the scores (exact float
equality), the stop reason, the work counters, and the counted physical
page reads under the paper's fresh-100-frame-pool regime.

One test repeats the comparison with fault injection enabled: the fault
draw depends only on the operation sequence, so bit-identical execution
must also see (and recover from) the identical fault sequence.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    EqualityThresholdQuery,
    EqualityTopKQuery,
    UncertainAttribute,
    WindowedEqualityQuery,
)
from repro.invindex import STRATEGIES, ProbabilisticInvertedIndex
from repro.storage import BufferPool
from repro.storage.stats import MeasureScope
from repro.storage.faults import FaultPlan, fault_plan

from tests.invindex.conftest import random_relation
from tests.invindex.reference import reference_strategies

POOL_SIZE = 100

#: Stats fields the shipped strategies and the reference must agree on.
STAT_FIELDS = (
    "candidates_examined",
    "entries_scanned",
    "nodes_visited",
    "random_accesses",
    "stop_reason",
)


@pytest.fixture(scope="module")
def dataset():
    relation = random_relation(250, 12, seed=41)
    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    return relation, index


def _query_uda(domain_size, seed, max_nnz=4):
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(1, max_nnz + 1))
    items = rng.choice(domain_size, size=nnz, replace=False)
    probs = rng.dirichlet(np.ones(nnz))
    return UncertainAttribute.from_pairs(
        list(zip(items.tolist(), probs.tolist()))
    )


def _implementation(reference):
    return reference_strategies() if reference else nullcontext()


def _run(index, make_query, strategy, reference=False):
    """Execute with a fresh measured pool; full snapshot."""
    with _implementation(reference):
        query = make_query()
        index.pool = BufferPool(index.disk, POOL_SIZE)
        with MeasureScope(index.disk) as scope:
            result = index.execute(query, strategy=strategy)
    stats = {field: getattr(result.stats, field) for field in STAT_FIELDS}
    return (
        [(m.tid, m.score) for m in result],
        stats,
        (scope.reads, scope.reads_by_tag),
    )


def assert_agrees_with_reference(index, make_query, strategy):
    matches, stats, reads = _run(index, make_query, strategy)
    ref_matches, ref_stats, ref_reads = _run(
        index, make_query, strategy, reference=True
    )
    assert matches == ref_matches, f"{strategy}: answers diverge"
    assert stats == ref_stats, f"{strategy}: stats diverge"
    assert reads == ref_reads, f"{strategy}: counted page reads diverge"


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
class TestDifferential:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 10_000),
        tau=st.floats(0.005, 0.6),
    )
    def test_threshold(self, dataset, strategy, seed, tau):
        relation, index = dataset
        assert_agrees_with_reference(
            index,
            lambda: EqualityThresholdQuery(
                _query_uda(len(relation.domain), seed), tau
            ),
            strategy,
        )

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 40),
    )
    def test_top_k(self, dataset, strategy, seed, k):
        relation, index = dataset
        assert_agrees_with_reference(
            index,
            lambda: EqualityTopKQuery(
                _query_uda(len(relation.domain), seed), k
            ),
            strategy,
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(1, 3),
        tau=st.floats(0.01, 0.4),
    )
    def test_windowed(self, dataset, strategy, seed, window, tau):
        relation, index = dataset
        assert_agrees_with_reference(
            index,
            lambda: WindowedEqualityQuery(
                _query_uda(len(relation.domain), seed), tau, window
            ),
            strategy,
        )


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_differential_under_fault_injection(dataset, strategy):
    """Identical behavior must hold with the fault layer recovering reads."""
    relation, index = dataset
    plan = FaultPlan(seed=97, read_error_rate=0.02, bit_rot_rate=0.01)
    with fault_plan(plan):
        for seed, tau in ((5, 0.05), (17, 0.2)):
            assert_agrees_with_reference(
                index,
                lambda: EqualityThresholdQuery(
                    _query_uda(len(relation.domain), seed), tau
                ),
                strategy,
            )
        for seed, k in ((7, 3), (23, 25)):
            assert_agrees_with_reference(
                index,
                lambda: EqualityTopKQuery(
                    _query_uda(len(relation.domain), seed), k
                ),
                strategy,
            )


# ---------------------------------------------------------------------------
# Serve-mode leg: the block verification path against the per-tid loop
# ---------------------------------------------------------------------------

def _serve_legs(index, make_query, strategy, reference):
    """Three requests through one serve-mode executor.

    The first meets a cold tuple store (every candidate is decoded and
    joins it), the repeat a warm one (every candidate comes out of it),
    and a neighbouring query a half-warm one (runs that mix cached and
    uncached candidates) — the three block paths of the shipped
    verifier; the reference walks all of them per tid.
    """
    from repro.exec import ServingExecutor

    legs = []
    with _implementation(reference):
        serve = ServingExecutor(index, strategy=strategy, mode="serve")
        for shift in (0, 0, 1):
            served = serve.execute(make_query(shift))
            legs.append(
                (
                    [(m.tid, m.score) for m in served.result],
                    {f: getattr(served.result.stats, f) for f in STAT_FIELDS},
                    served.reads,
                    served.reads_by_tag,
                )
            )
        serve.check_quiesced()
    return legs


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(("threshold", "top_k", "windowed")),
    tau=st.floats(0.005, 0.5),
    k=st.integers(1, 40),
)
def test_serve_mode_store_states_agree_across_kernels(
    dataset, strategy, seed, kind, tau, k
):
    relation, index = dataset

    def make_query(shift=0):
        q = _query_uda(len(relation.domain), seed + shift)
        if kind == "threshold":
            return EqualityThresholdQuery(q, tau)
        if kind == "top_k":
            return EqualityTopKQuery(q, k)
        return WindowedEqualityQuery(q, tau, 1 + k % 3)

    shipped = _serve_legs(index, make_query, strategy, reference=False)
    reference = _serve_legs(index, make_query, strategy, reference=True)
    for leg, (got, want) in enumerate(zip(shipped, reference)):
        assert got[0] == want[0], f"{strategy} leg {leg}: answers diverge"
        assert got[1] == want[1], f"{strategy} leg {leg}: stats diverge"
        assert got[2:] == want[2:], f"{strategy} leg {leg}: reads diverge"
    cold, warm, _ = shipped
    assert warm[:2] == cold[:2]  # warmth changes reads, never answers
    assert warm[2] == 0  # pool and tuple store hold the whole request
    # And the served answer is the paper protocol's answer.
    assert cold[0] == _run(index, make_query, strategy)[0]
