"""Differential suite: scalar vs vectorized kernels are bit-identical.

``REPRO_KERNEL=scalar`` keeps the seed per-posting loops alive exactly
so this suite can execute every strategy twice — once per kernel mode —
over hypothesis-generated workloads and assert the two modes agree on
*everything* the I/O model defines: the answer set, the scores (exact
float equality), the stop reason, the work counters, and the counted
physical page reads under the paper's fresh-100-frame-pool regime.

One test repeats the comparison with fault injection enabled: the fault
draw depends only on the operation sequence, so bit-identical execution
must also see (and recover from) the identical fault sequence.
"""

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
from repro.core import kernels
from repro.invindex import STRATEGIES, ProbabilisticInvertedIndex
from repro.storage import BufferPool
from repro.storage.faults import FaultPlan, fault_plan

from tests.invindex.conftest import random_relation

POOL_SIZE = 100

#: Stats fields the two kernel modes must agree on exactly.
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


def _run(index, make_query, strategy, mode):
    """Execute under ``mode`` with a fresh measured pool; full snapshot.

    The query object is built *inside* the mode scope: scoring caches a
    dense table on the query under the vectorized mode, and sharing one
    object across modes would let the scalar run reuse it.
    """
    with kernels.kernel_override(mode):
        query = make_query()
        index.pool = BufferPool(index.disk, POOL_SIZE)
        before = index.disk.stats.snapshot()
        result = index.execute(query, strategy=strategy)
        reads = index.disk.stats.delta_since(before).reads
    stats = {field: getattr(result.stats, field) for field in STAT_FIELDS}
    return [(m.tid, m.score) for m in result], stats, reads


def _assert_modes_agree(index, make_query, strategy):
    matches_v, stats_v, reads_v = _run(
        index, make_query, strategy, "vectorized"
    )
    matches_s, stats_s, reads_s = _run(index, make_query, strategy, "scalar")
    assert matches_v == matches_s, f"{strategy}: answers diverge"
    assert stats_v == stats_s, f"{strategy}: stats diverge"
    assert reads_v == reads_s, f"{strategy}: counted page reads diverge"


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
        _assert_modes_agree(
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
        _assert_modes_agree(
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
        _assert_modes_agree(
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
            _assert_modes_agree(
                index,
                lambda: EqualityThresholdQuery(
                    _query_uda(len(relation.domain), seed), tau
                ),
                strategy,
            )
        for seed, k in ((7, 3), (23, 25)):
            _assert_modes_agree(
                index,
                lambda: EqualityTopKQuery(
                    _query_uda(len(relation.domain), seed), k
                ),
                strategy,
            )


# ---------------------------------------------------------------------------
# Serve-mode leg: the block verification path against the per-tid loop
# ---------------------------------------------------------------------------

def _serve_legs(index, make_query, strategy, mode):
    """Three requests through one serve-mode executor under ``mode``.

    The first meets a cold tuple store (every candidate is decoded and
    joins it), the repeat a warm one (every candidate comes out of it),
    and a neighbouring query a half-warm one (runs that mix cached and
    uncached candidates) — the three block paths of the vectorized
    kernel; the scalar kernel walks all of them per tid.
    """
    from repro.exec import ServingExecutor

    legs = []
    with kernels.kernel_override(mode):
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

    vectorized = _serve_legs(index, make_query, strategy, "vectorized")
    scalar = _serve_legs(index, make_query, strategy, "scalar")
    for leg, (got, want) in enumerate(zip(vectorized, scalar)):
        assert got[0] == want[0], f"{strategy} leg {leg}: answers diverge"
        assert got[1] == want[1], f"{strategy} leg {leg}: stats diverge"
        assert got[2:] == want[2:], f"{strategy} leg {leg}: reads diverge"
    cold, warm, _ = vectorized
    assert warm[:2] == cold[:2]  # warmth changes reads, never answers
    assert warm[2] == 0  # pool and tuple store hold the whole request
    # And the served answer is the paper protocol's answer.
    assert cold[0] == _run(index, make_query, strategy, "vectorized")[0]
