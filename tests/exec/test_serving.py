"""Tests for :mod:`repro.exec.serving` (the measure/serve protocol split).

The load-bearing contracts: serve-mode answers are byte-identical to
measurement-mode answers; warm per-request posting reads never exceed
the cold (fresh-pool) reads for the same query; measure mode reproduces
:func:`repro.bench.harness.measure_query` exactly; coalesced batches
demultiplex in input order; and the warm pool quiesces clean (no
leaked pins) after any workload.
"""

from contextlib import contextmanager

import pytest

from repro.bench.harness import IndexUnderTest, measure_query
from repro.core import QueryError
from repro.exec import DEFAULT_SERVE_POOL_SIZE, MODES, ServingExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.pdrtree import PDRTree

from tests.exec.test_batch import POOL_SIZE, mixed_workload
from tests.invindex.conftest import random_relation


@pytest.fixture(scope="module")
def relation():
    return random_relation(300, 14, seed=61)


@pytest.fixture(scope="module")
def index(relation):
    built = ProbabilisticInvertedIndex(len(relation.domain))
    built.build(relation)
    return built


@pytest.fixture(scope="module")
def tree(relation):
    built = PDRTree(len(relation.domain))
    built.build(relation)
    return built


def answers(served):
    return [[(m.tid, m.score) for m in s.result.matches] for s in served]


def test_mode_is_validated(index):
    with pytest.raises(QueryError, match="mode"):
        ServingExecutor(index, mode="burst")
    assert MODES == ("measure", "serve")


def test_pool_size_is_validated(index):
    with pytest.raises(QueryError, match="pool_size"):
        ServingExecutor(index, pool_size=0)


def test_measure_mode_has_no_shared_pool(index):
    executor = ServingExecutor(index, mode="measure")
    assert executor.pool is None
    assert executor.pool_size == POOL_SIZE


def test_serve_mode_defaults_to_large_pool(index):
    executor = ServingExecutor(index, mode="serve")
    assert executor.pool is not None
    assert executor.pool.capacity == DEFAULT_SERVE_POOL_SIZE
    assert index.pool is executor.pool


def test_measure_mode_matches_harness(index, relation):
    """Measure mode is the paper protocol: identical reads and answers."""
    queries = mixed_workload(len(relation.domain), 12, base_seed=7)
    under_test = IndexUnderTest("inverted", index)
    executor = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    for query in queries:
        baseline = measure_query(under_test, query, POOL_SIZE)
        served = executor.execute(query)
        assert served.mode == "measure"
        assert served.reads == baseline.reads
        assert served.reads_by_tag == baseline.reads_by_tag
        assert len(served) == baseline.result_size


def test_serve_answers_identical_to_measure(index, relation):
    queries = mixed_workload(len(relation.domain), 20, base_seed=3)
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    expected = answers([measure.execute(q) for q in queries])
    serve = ServingExecutor(index, mode="serve")
    got = answers([serve.execute(q) for q in queries])
    assert got == expected
    serve.check_quiesced()


def test_warm_posting_reads_never_exceed_cold(index, relation):
    """The per-request read bound the benchmark asserts, in miniature."""
    queries = mixed_workload(len(relation.domain), 20, base_seed=11)
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    cold = [measure.execute(q).reads for q in queries]
    serve = ServingExecutor(index, mode="serve")
    warm = [serve.execute(q).reads for q in queries]
    for position, (w, c) in enumerate(zip(warm, cold)):
        assert w <= c, f"query {position}: warm {w} > cold {c}"
    # A repeat pass over the same workload is fully resident.
    rewarm = [serve.execute(q).reads for q in queries]
    assert sum(rewarm) == 0
    assert serve.hit_ratio() > 0.5


def test_coalesced_batch_matches_per_query(index, relation):
    queries = mixed_workload(len(relation.domain), 15, base_seed=23)
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    expected = answers([measure.execute(q) for q in queries])
    serve = ServingExecutor(index, mode="serve")
    served = serve.execute_batch(queries)
    assert answers(served) == expected
    assert [s.coalesced for s in served] == [len(queries)] * len(queries)
    total_attributed = sum(s.reads for s in served)
    cold_total = sum(measure.execute(q).reads for q in queries)
    assert total_attributed <= cold_total
    serve.check_quiesced()


def test_batch_is_a_loop_over_execute(relation):
    """A coalesced group shares the pool and nothing else: every member
    is billed exactly what a lone ``execute`` on an identically warmed
    twin is billed, bounds included."""
    from repro.core import EqualityTopKQuery

    def warmed():
        built = ProbabilisticInvertedIndex(len(relation.domain))
        built.build(relation)
        # A pool smaller than the working set, so warmth matters.
        executor = ServingExecutor(built, mode="serve", pool_size=8)
        for query in mixed_workload(len(relation.domain), 5, base_seed=67):
            executor.execute(query)
        return executor

    queries = mixed_workload(len(relation.domain), 12, base_seed=71)
    bounds = [
        {"tau_floor": 0.01 * position}
        if isinstance(query, EqualityTopKQuery)
        else {}
        for position, query in enumerate(queries)
    ]
    assert any(bounds), "workload should exercise a pushed bound"
    alone = warmed()
    expected = [alone.execute(q, **b) for q, b in zip(queries, bounds)]
    served = warmed().execute_batch(queries, bounds)
    assert answers(served) == answers(expected)
    assert [s.reads for s in served] == [e.reads for e in expected]
    assert [s.reads_by_tag for s in served] == [
        e.reads_by_tag for e in expected
    ]
    assert sum(s.reads for s in served) > 0
    assert [s.coalesced for s in served] == [len(queries)] * len(queries)
    with pytest.raises(ValueError):
        alone.execute_batch(queries, bounds[:-1])


def test_measure_mode_batch_degenerates_to_per_query(index, relation):
    queries = mixed_workload(len(relation.domain), 6, base_seed=29)
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    served = measure.execute_batch(queries)
    assert [s.coalesced for s in served] == [1] * len(queries)
    assert [s.mode for s in served] == ["measure"] * len(queries)


def test_measure_mode_reads_are_repeatable(index, relation):
    """A fresh pool per query means repeats cost exactly the same."""
    queries = mixed_workload(len(relation.domain), 6, base_seed=31)
    executor = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    first = [executor.execute(q).reads for q in queries]
    second = [executor.execute(q).reads for q in queries]
    assert first == second


def test_serve_reattaches_pool_after_foreign_swap(index, relation):
    """A measurement harness borrowing the index cannot break serving."""
    queries = mixed_workload(len(relation.domain), 4, base_seed=37)
    serve = ServingExecutor(index, mode="serve")
    for q in queries:
        serve.execute(q)
    warm_reads = serve.execute(queries[0]).reads
    assert warm_reads == 0
    # Borrow the index for a measurement (installs a fresh pool)...
    measure_query(IndexUnderTest("inverted", index), queries[0], POOL_SIZE)
    assert index.pool is not serve.pool
    # ...and serving re-attaches its warm pool on the next request.
    assert serve.execute(queries[0]).reads == 0
    assert index.pool is serve.pool


def test_reset_window_preserves_warmth(index, relation):
    queries = mixed_workload(len(relation.domain), 8, base_seed=41)
    serve = ServingExecutor(index, mode="serve")
    for q in queries:
        serve.execute(q)
    serve.reset_window()
    assert serve.pool.hits == 0 and serve.pool.misses == 0
    # Warmth survived the counter reset: repeats are still free.
    assert all(serve.execute(q).reads == 0 for q in queries)
    assert serve.hit_ratio() == 1.0


def test_tuple_cache_invalidated_by_mutation(relation):
    """An insert between requests never serves stale decoded tuples."""
    import numpy as np

    from repro.core import EqualityThresholdQuery, UncertainAttribute

    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    query = EqualityThresholdQuery(
        UncertainAttribute(np.array([0, 1]), np.array([0.5, 0.5])), 0.01
    )
    serve = ServingExecutor(index, mode="serve")
    before = serve.execute(query)
    assert serve.tuple_cache, "verification should have populated the cache"
    new_tid = max(relation.tids()) + 1
    index.insert(
        new_tid,
        UncertainAttribute(np.array([0, 1]), np.array([0.5, 0.5])),
    )
    after = serve.execute(query)
    fresh = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    expected = fresh.execute(query)
    assert answers([after]) == answers([expected])
    assert new_tid in after.result.tid_set()
    assert new_tid not in before.result.tid_set()


class _StamplessIndex:
    """A shared-scan index with no ``mutations`` stamp.

    Minimal surface for :class:`ServingExecutor`: a disk, a pool, a
    ``shared_scan`` memo scope, and an ``execute`` that decodes its one
    "tuple" through the memo — so a stale memo is directly observable as
    a stale answer.
    """

    def __init__(self):
        from repro.storage import BufferPool, DiskManager

        self.disk = DiskManager()
        self.pool = BufferPool(self.disk, 4)
        self.value = 1.0
        self._memo = None

    @contextmanager
    def shared_scan(self, memo):
        self._memo = memo
        try:
            yield
        finally:
            self._memo = None

    def execute(
        self, query, *, strategy=None, tau_floor=0.0, sketch=None,
        div_ceiling=None,
    ):
        from repro.core.results import Match, QueryResult

        memo = self._memo if self._memo is not None else {}
        if "score" not in memo:
            memo["score"] = self.value
        return QueryResult([Match(tid=0, score=memo["score"])])


def test_stampless_index_bypasses_cross_request_cache():
    """Regression: no mutation stamp means no cross-request tuple cache.

    Before the fix, ``getattr(index, "mutations", None)`` stamped such an
    index with the constant ``None``; the staleness check then passed
    vacuously forever and the first request's decodes were served to
    every later request, however stale.
    """
    stampless = _StamplessIndex()
    serve = ServingExecutor(stampless, mode="serve")
    # No stamp to validate against -> no cross-request cache at all.
    assert serve.tuple_cache is None
    first = serve.execute(None)
    assert [m.score for m in first.result.matches] == [1.0]
    stampless.value = 2.0  # mutate without any stamp to announce it
    second = serve.execute(None)
    assert [m.score for m in second.result.matches] == [2.0]


def test_stampless_index_still_gets_per_request_memo():
    """Within one coalesced request a stamp-less index still memoizes."""
    stampless = _StamplessIndex()
    serve = ServingExecutor(stampless, mode="serve")
    with serve._decode_scope():
        stampless.execute(None)
        memo = stampless._memo
        assert memo == {"score": 1.0}
    with serve._decode_scope():
        assert stampless._memo == {}  # fresh memo, not the last request's


def test_measurement_unaffected_by_live_serving_executor(index, relation):
    """A serve executor's caches never leak into a measurement run."""
    queries = mixed_workload(len(relation.domain), 4, base_seed=53)
    under_test = IndexUnderTest("inverted", index)
    baseline = [measure_query(under_test, q, POOL_SIZE) for q in queries]
    serve = ServingExecutor(index, mode="serve")
    for q in queries:
        serve.execute(q)
    # The serving executor is alive and warm; measurement still pays
    # full freight because the tuple cache detaches between requests.
    assert index._tuple_memo is None
    again = [measure_query(under_test, q, POOL_SIZE) for q in queries]
    assert [m.reads for m in again] == [m.reads for m in baseline]
    assert [m.reads_by_tag for m in again] == [
        m.reads_by_tag for m in baseline
    ]


def test_pdr_tree_serves_warm(tree, relation):
    queries = mixed_workload(len(relation.domain), 10, base_seed=43)
    measure = ServingExecutor(tree, mode="measure", pool_size=POOL_SIZE)
    expected = answers([measure.execute(q) for q in queries])
    cold = [measure.execute(q).reads for q in queries]
    serve = ServingExecutor(tree, mode="serve")
    served = [serve.execute(q) for q in queries]
    assert answers(served) == expected
    assert all(s.reads <= c for s, c in zip(served, cold))
    serve.check_quiesced()


def test_strategy_pairing_validated_up_front(tree):
    with pytest.raises(QueryError):
        ServingExecutor(tree, strategy="highest_prob_first")


class TestGenerationalTupleCache:
    """Generation-segmented eviction (the epoch-clear regression)."""

    def make(self, capacity=8):
        from repro.exec import GenerationalTupleCache

        return GenerationalTupleCache(capacity)

    def test_capacity_is_validated(self):
        with pytest.raises(QueryError):
            self.make(capacity=1)

    def test_dict_surface(self):
        cache = self.make()
        cache["a"] = 1
        assert cache.get("a") == 1
        assert cache.get("zzz", "fallback") == "fallback"
        assert "a" in cache and len(cache) == 1
        cache.clear()
        assert "a" not in cache and len(cache) == 0

    def test_residency_stays_bounded(self):
        cache = self.make(capacity=8)
        for i in range(1000):
            cache[i] = i
        assert len(cache) <= 8

    def test_hot_entry_survives_epoch_boundaries(self):
        """The regression: a key touched every generation is never evicted."""
        cache = self.make(capacity=8)
        cache["hot"] = "payload"
        for i in range(100):  # 25x the capacity: many rotations
            cache[i] = i
            assert cache.get("hot") == "payload", f"evicted after {i} inserts"

    def test_untouched_entries_age_out(self):
        cache = self.make(capacity=8)
        cache["cold"] = 1
        for i in range(8):  # two full generations without a touch
            cache[i] = i
        assert cache.get("cold") is None


def test_warm_hit_rate_survives_epoch_boundary(relation):
    """Regression: crossing the cache's entry cap used to clear it whole,

    so the request after the boundary re-decoded every hot tuple.  With
    generational eviction the hot working set stays resident across the
    boundary."""
    import numpy as np

    from repro.core import EqualityThresholdQuery, UncertainAttribute

    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    hot_query = EqualityThresholdQuery(
        UncertainAttribute(np.array([0, 1]), np.array([0.5, 0.5])), 0.01
    )
    serve = ServingExecutor(index, mode="serve", tuple_cache_entries=16)
    serve.execute(hot_query)
    hot_tids = {
        tid for tid in serve.tuple_cache._current  # the hot working set
    }
    assert hot_tids, "hot query should have decoded tuples into the cache"
    # Drive enough distinct cold queries to cross the cap repeatedly
    # while re-touching the hot query each round.
    for seed in range(12):
        for q in mixed_workload(len(relation.domain), 3, base_seed=100 + seed):
            serve.execute(q)
        serve.execute(hot_query)
        resident = sum(1 for tid in hot_tids if tid in serve.tuple_cache)
        assert resident == len(hot_tids), (
            f"hot set partially evicted after round {seed}: "
            f"{resident}/{len(hot_tids)} resident"
        )
