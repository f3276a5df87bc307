"""Tests for :mod:`repro.exec.serving` (the measure/serve protocol split).

The load-bearing contracts: serve-mode answers are byte-identical to
measurement-mode answers; warm per-request posting reads never exceed
the cold (fresh-pool) reads for the same query; measure mode reproduces
:func:`repro.bench.harness.measure_query` exactly; batches answer in
input order; and the warm pool quiesces clean (no
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
    total_attributed = sum(s.reads for s in served)
    cold_total = sum(measure.execute(q).reads for q in queries)
    assert total_attributed <= cold_total
    serve.check_quiesced()


def test_batch_is_a_loop_over_execute(relation):
    """A batch shares the pool and nothing else: every member
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
    with pytest.raises(ValueError):
        alone.execute_batch(queries, bounds[:-1])


def test_measure_mode_batch_degenerates_to_per_query(index, relation):
    queries = mixed_workload(len(relation.domain), 6, base_seed=29)
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    served = measure.execute_batch(queries)
    alone = [measure.execute(q) for q in queries]
    assert [s.mode for s in served] == ["measure"] * len(queries)
    assert answers(served) == answers(alone)
    assert [s.reads for s in served] == [s.reads for s in alone]


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
    """An insert between requests never serves stale decoded tuples.

    The insert goes straight to the index — not through
    ``apply_mutation`` — so the executor only finds out from the
    mutation stamp, and must drop everything it had decoded."""
    import numpy as np

    from repro.core import EqualityThresholdQuery, UncertainAttribute

    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    query = EqualityThresholdQuery(
        UncertainAttribute(np.array([0, 1]), np.array([0.5, 0.5])), 0.01
    )
    serve = ServingExecutor(index, mode="serve")
    before = serve.execute(query)
    cache = serve.tuple_cache
    assert len(cache), "verification should have populated the cache"
    cached_tids = [tid for tid in relation.tids() if tid in cache]
    new_tid = max(relation.tids()) + 1
    index.insert(
        new_tid,
        UncertainAttribute(np.array([0, 1]), np.array([0.5, 0.5])),
    )
    hits = cache.hits
    after = serve.execute(query)
    # Safety net: every entry was dropped and decoded afresh.
    assert cache.hits == hits
    assert all(tid in cache for tid in cached_tids) and new_tid in cache
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
    """Within one request a stamp-less index still memoizes."""
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
    """Generation-segmented eviction (the epoch-clear regression).

    Keys are tids and values decoded ``(items, probs)`` pairs — the only
    thing the columnar store holds.
    """

    HOT, COLD = 10_001, 10_002

    def make(self, capacity=8):
        from repro.exec import GenerationalTupleCache

        return GenerationalTupleCache(capacity)

    @staticmethod
    def row(tid):
        """A decoded tuple that identifies its tid (width varies too)."""
        import numpy as np

        width = 1 + tid % 3
        return (
            np.arange(tid, tid + width, dtype=np.int64),
            np.full(width, 1.0 / (1 + tid % 7)),
        )

    @staticmethod
    def same(value, expected):
        return (
            value is not None
            and value[0].tolist() == expected[0].tolist()
            and value[1].tolist() == expected[1].tolist()
        )

    def test_capacity_is_validated(self):
        with pytest.raises(QueryError):
            self.make(capacity=1)

    def test_dict_surface(self):
        cache = self.make()
        cache[5] = self.row(5)
        assert self.same(cache.get(5), self.row(5))
        assert cache.get(999, "fallback") == "fallback"
        assert 5 in cache and len(cache) == 1
        cache[5] = self.row(6)  # overwrite, not a second row
        assert self.same(cache.get(5), self.row(6)) and len(cache) == 1
        cache.discard(5)
        cache.discard(5)  # absent: a no-op
        assert 5 not in cache and len(cache) == 0
        cache[7] = self.row(7)
        cache.clear()
        assert 7 not in cache and len(cache) == 0

    def test_residency_stays_bounded(self):
        cache = self.make(capacity=8)
        for i in range(1000):
            cache[i] = self.row(i)
            assert len(cache) <= 8
        assert self.same(cache.get(999), self.row(999))

    def test_hot_entry_survives_epoch_boundaries(self):
        """The regression: a key touched every generation is never evicted."""
        cache = self.make(capacity=8)
        cache[self.HOT] = self.row(self.HOT)
        for i in range(100):  # 25x the capacity: many rotations
            cache[i] = self.row(i)
            assert self.same(
                cache.get(self.HOT), self.row(self.HOT)
            ), f"evicted after {i} inserts"

    def test_untouched_entries_age_out(self):
        cache = self.make(capacity=8)
        cache[self.COLD] = self.row(self.COLD)
        for i in range(8):  # two full generations without a touch
            cache[i] = self.row(i)
        assert cache.get(self.COLD) is None

    def test_block_surface_matches_per_tuple_surface(self):
        """``rows`` / ``extend`` and ``get`` / ``__setitem__`` are one store."""
        import numpy as np

        from repro.invindex.tuple_cache import concat_rows

        cache = self.make(capacity=64)
        tids = np.array([40, 3, 17, 900], dtype=np.int64)  # sparse, unsorted
        items, probs, _, lens = concat_rows([self.row(t) for t in tids.tolist()])
        cache.extend(tids, items, probs, lens)
        cache[8] = self.row(8)
        probe = np.array([17, 8, 5, 900, 40], dtype=np.int64)
        flat_items, flat_probs, starts, lens = cache.rows(probe)
        assert lens[2] == -1  # tid 5 was never inserted
        for tid, start, width in zip(probe.tolist(), starts.tolist(), lens.tolist()):
            if width >= 0:
                block_row = (
                    flat_items[start : start + width],
                    flat_probs[start : start + width],
                )
                assert self.same(block_row, self.row(tid))
                assert self.same(cache.get(tid), self.row(tid))
        assert (cache.hits, cache.misses) == (4 + 4, 1)

    def test_oversized_block_keeps_residency_bounded(self):
        import numpy as np

        from repro.invindex.tuple_cache import concat_rows

        cache = self.make(capacity=8)
        tids = np.arange(100, 130, dtype=np.int64)
        items, probs, _, lens = concat_rows([self.row(t) for t in tids.tolist()])
        cache.extend(tids, items, probs, lens)
        assert len(cache) <= 8
        assert self.same(cache.get(129), self.row(129))  # most recent rows kept

    def test_discarded_pairs_are_reclaimed(self):
        """Churn (insert + discard forever) must not grow the flat buffers."""
        cache = self.make(capacity=1 << 12)
        for i in range(5000):
            cache[i] = self.row(i)
            if i >= 4:
                cache.discard(i - 4)
        assert len(cache) == 4
        assert len(cache._items) <= 256  # white-box: garbage was compacted


def test_warm_hit_rate_survives_epoch_boundary():
    """Regression: crossing the cache's entry cap used to clear it whole,

    so the request after the boundary re-decoded every hot tuple.  With
    generational eviction a hot working set that is re-touched between
    boundaries is never decoded again, however much cold traffic rotates
    through — and residency never exceeds the (tiny) cap."""
    import numpy as np

    from repro.core import EqualityThresholdQuery, UncertainAttribute

    domain_size = 60
    relation = random_relation(1200, domain_size, seed=67, max_nnz=3)
    index = ProbabilisticInvertedIndex(domain_size)
    index.build(relation)
    hot_query = EqualityThresholdQuery(
        UncertainAttribute(np.array([0, 1]), np.array([0.5, 0.5])), 0.6
    )
    cold_queries = [
        EqualityThresholdQuery(UncertainAttribute.point(item), 0.9)
        for item in range(2, domain_size)
    ]
    # Size the cap from the workload: the hot set plus one cold
    # query's candidates fit a generation, the cold traffic as a whole
    # is several times the cap.
    probe = ServingExecutor(index, mode="serve")
    probe.execute(hot_query)
    hot_size = len(probe.tuple_cache)
    widest_cold = 0
    for query in cold_queries:
        before = len(probe.tuple_cache)
        probe.execute(query)
        widest_cold = max(widest_cold, len(probe.tuple_cache) - before)
    capacity = 2 * (hot_size + widest_cold)
    assert hot_size and len(probe.tuple_cache) > 3 * capacity

    serve = ServingExecutor(index, mode="serve", tuple_cache_entries=capacity)
    cache = serve.tuple_cache
    serve.execute(hot_query)
    hot_tids = [tid for tid in relation.tids() if tid in cache]
    assert len(hot_tids) == hot_size
    for round_number, cold in enumerate(cold_queries):
        serve.execute(cold)
        assert len(cache) <= capacity
        decoded = cache.misses
        serve.execute(hot_query)
        assert cache.misses == decoded, (
            f"hot set re-decoded after round {round_number}: "
            f"{cache.misses - decoded} misses"
        )
        assert all(tid in cache for tid in hot_tids)
        assert len(cache) <= capacity
    # The cold traffic really did rotate through: most of what was
    # decoded along the way is gone again.
    assert cache.misses > 3 * capacity


def test_tuple_cache_stays_coherent_under_interleaved_mutations(
    relation, monkeypatch
):
    """Per-tid invalidation never serves a stale tuple, whatever the path.

    Mutations arrive through ``apply_mutation`` (insert, delete,
    delete-then-reinsert of one tid with different pairs, compact) and
    out of band (``index.insert`` / ``index.delete`` behind the
    executor's back); after every step a fixed query set must answer
    exactly like a fresh measurement-mode executor — tids, scores,
    order.  And the point of invalidating by tid: an executor-applied
    write leaves every other decoded tuple resident.
    """
    import numpy as np

    from repro.core import (
        EqualityThresholdQuery,
        EqualityTopKQuery,
        UncertainAttribute,
    )

    def uda(*pairs):
        return UncertainAttribute.from_pairs(list(pairs))

    from repro.invindex import index as index_module

    decoded = []  # every heap-record decode, served or measured
    decode = index_module.decode_heap_record
    monkeypatch.setattr(
        index_module,
        "decode_heap_record",
        lambda record: decoded.append(1) or decode(record),
    )

    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    serve = ServingExecutor(index, mode="serve")
    cache = serve.tuple_cache
    probe = uda((0, 0.5), (1, 0.5))
    queries = [
        EqualityThresholdQuery(probe, 0.01),
        EqualityTopKQuery(probe, 300),
        EqualityThresholdQuery(uda((2, 0.6), (3, 0.4)), 0.02),
        *mixed_workload(len(relation.domain), 3, base_seed=71),
    ]

    def check(step):
        # Measure first: serving last leaves the warm pool attached, so
        # an out-of-band mutation writes through the pool that serves.
        measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
        expected = [answers([measure.execute(query)]) for query in queries]
        decodes_before = len(decoded)
        for position, query in enumerate(queries):
            assert (
                answers([serve.execute(query)]) == expected[position]
            ), f"stale answer after {step}, query {position}"
        serve.check_quiesced()
        return len(decoded) - decodes_before  # heap records the serve leg decoded

    assert check("build") > 50
    assert check("nothing") == 0
    resident = [tid for tid in relation.tids() if tid in cache]
    assert len(resident) > 50
    fresh_tid = max(relation.tids()) + 1
    reused_tid = resident[0]
    stamp = index.mutations

    # Executor-applied insert: only that tid is touched.
    assert serve.apply_mutation("insert", tid=fresh_tid, uda=probe) == stamp + 1
    assert all(tid in cache for tid in resident)
    # The next requests decode the new tuple and nothing else (the
    # parent cleared the cache here and decoded every candidate again).
    assert check("apply insert") == 1
    assert fresh_tid in cache and all(tid in cache for tid in resident)

    # Executor-applied delete: that tid goes, the rest stay.
    serve.apply_mutation("delete", tid=fresh_tid)
    assert fresh_tid not in cache
    assert check("apply delete") == 0
    assert all(tid in cache for tid in resident)

    # Delete, then re-insert the same tid with different pairs.
    old_pairs = index.fetch_uda(reused_tid)
    serve.apply_mutation("delete", tid=reused_tid)
    serve.apply_mutation("insert", tid=reused_tid, uda=uda((0, 0.125), (1, 0.875)))
    assert reused_tid not in cache
    assert check("delete + reinsert, new pairs") == 1
    assert reused_tid in cache
    pairs_now = cache.get(reused_tid)
    assert pairs_now[1].tolist() == [0.125, 0.875] != old_pairs.probs.tolist()

    # Compaction rewrites pages, not pairs: nothing is discarded.
    held = len(cache)
    serve.apply_mutation("compact")
    assert len(cache) == held
    assert check("apply compact") == 0

    # Out of band: the executor never saw these, the stamp did.
    index.insert(fresh_tid, uda((0, 0.25), (1, 0.75)))
    assert check("out-of-band insert") > 50  # safety net: all decoded again
    index.delete(fresh_tid)
    index.delete(resident[1])
    check("out-of-band deletes")

    # Out of band *then* through the executor: the stamp had already
    # moved, so the executor must not adopt the new one.
    index.insert(fresh_tid, uda((1, 1.0)))
    serve.apply_mutation("delete", tid=resident[2])
    check("out-of-band insert + apply delete")

    # A refused mutation changes nothing and poisons nothing.
    with pytest.raises(QueryError):
        serve.apply_mutation("insert", tid=resident[3], uda=probe)
    check("refused insert")
    serve.apply_mutation("compact")
    check("final compact")
