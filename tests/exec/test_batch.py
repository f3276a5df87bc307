"""Tests for :mod:`repro.exec.batch` (the batched multi-query executor).

Covers the configuration surface (``REPRO_BATCH`` parsing and the
``batch_override`` scope), workload planning (``touched_items``), the
exactness contract against the per-query loop, the batch-size-1 I/O
identity, pin hygiene on every exit path — normal completion, a
mid-batch exception, and fault-injection retries — and the schema
validity of the ``batch.*`` trace records.
"""

import pytest

from repro.core import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    QueryError,
    SimilarityThresholdQuery,
    UncertainAttribute,
    WindowedEqualityQuery,
)
from repro.exec import BATCH_ENV, BatchExecutor, batch_override, resolve_batch
from repro.exec.batch import touched_items
from repro.invindex import ProbabilisticInvertedIndex
from repro.obs.schema import SCHEMA, validate_records
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.pdrtree import PDRTree
from repro.storage import BufferPool
from repro.storage.faults import FaultPlan, fault_plan

from tests.invindex.conftest import random_query, random_relation

POOL_SIZE = 100


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


def mixed_workload(domain_size, count, base_seed=0):
    """Alternating threshold / top-k / windowed equality queries."""
    queries = []
    for i in range(count):
        q = random_query(domain_size, seed=base_seed + i)
        if i % 3 == 0:
            queries.append(EqualityThresholdQuery(q, 0.05))
        elif i % 3 == 1:
            queries.append(EqualityTopKQuery(q, 1 + i % 7))
        else:
            queries.append(WindowedEqualityQuery(q, 0.05, 1 + i % 2))
    return queries


def per_query_protocol(index, queries, strategy=None):
    """The paper's baseline: a fresh measured pool per query."""
    results = []
    for query in queries:
        index.pool = BufferPool(index.disk, POOL_SIZE)
        if strategy is not None:
            results.append(index.execute(query, strategy=strategy))
        else:
            results.append(index.execute(query))
    return results


def answer_sets(results):
    return [[(m.tid, m.score) for m in result] for result in results]


class TestResolveBatch:
    @pytest.mark.parametrize("raw", ["", "off", "default", "  OFF  "])
    def test_unset_spellings_mean_one(self, monkeypatch, raw):
        monkeypatch.setenv(BATCH_ENV, raw)
        assert resolve_batch() == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "16")
        assert resolve_batch() == 16

    @pytest.mark.parametrize("raw", ["sixteen", "0", "-3", "2.5"])
    def test_invalid_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv(BATCH_ENV, raw)
        with pytest.raises(QueryError):
            resolve_batch()

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "16")
        assert resolve_batch(4) == 4

    def test_explicit_arg_validated(self):
        with pytest.raises(QueryError):
            resolve_batch(0)

    def test_override_beats_env_and_restores(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "16")
        with batch_override(8):
            assert resolve_batch() == 8
        assert resolve_batch() == 16

    def test_override_validated(self):
        with pytest.raises(QueryError):
            with batch_override(0):
                pass


class TestTouchedItems:
    def test_equality_family_uses_query_support(self):
        q = UncertainAttribute.from_pairs([(2, 0.5), (7, 0.5)])
        assert touched_items(EqualityQuery(q)) == [2, 7]
        assert touched_items(EqualityThresholdQuery(q, 0.1)) == [2, 7]
        assert touched_items(EqualityTopKQuery(q, 3)) == [2, 7]
        assert touched_items(SimilarityThresholdQuery(q, 0.5)) == [2, 7]

    def test_windowed_expands_with_domain_clamp(self):
        q = UncertainAttribute.from_pairs([(0, 1.0)])
        query = WindowedEqualityQuery(q, 0.1, 2)
        # Window [-2, 2] clamps at the domain edges.
        assert touched_items(query, 4) == [0, 1, 2]
        assert touched_items(query, 2) == [0, 1]

    def test_unsupported_query_raises(self):
        with pytest.raises(QueryError):
            touched_items(object())


class TestExactness:
    @pytest.mark.parametrize("batch_size", [1, 3, 7, 32])
    def test_inverted_index_matches_per_query(
        self, relation, index, batch_size
    ):
        queries = mixed_workload(len(relation.domain), 20, base_seed=100)
        expected = answer_sets(
            per_query_protocol(index, queries, "highest_prob_first")
        )
        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=batch_size,
        )
        assert answer_sets(executor.run(queries)) == expected

    @pytest.mark.parametrize("strategy", ["row_pruning", "no_random_access"])
    def test_other_strategies_match_per_query(self, relation, index, strategy):
        queries = mixed_workload(len(relation.domain), 12, base_seed=300)
        expected = answer_sets(per_query_protocol(index, queries, strategy))
        executor = BatchExecutor(
            index, strategy=strategy, pool_size=POOL_SIZE, batch_size=4
        )
        assert answer_sets(executor.run(queries)) == expected

    def test_pdrtree_dstq_batching(self, relation, tree):
        queries = []
        for i in range(9):
            q = random_query(len(relation.domain), seed=500 + i)
            if i % 2:
                queries.append(SimilarityThresholdQuery(q, 2.5, "l1"))
            else:
                queries.append(EqualityThresholdQuery(q, 0.05))
        expected = answer_sets(per_query_protocol(tree, queries))
        executor = BatchExecutor(tree, pool_size=POOL_SIZE, batch_size=3)
        assert answer_sets(executor.run(queries)) == expected

    def test_results_align_with_input_order(self, relation, index):
        # The planner reorders execution within a batch; results must not.
        queries = mixed_workload(len(relation.domain), 10, base_seed=700)
        expected = answer_sets(
            per_query_protocol(index, queries, "highest_prob_first")
        )
        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=10,
        )
        got = answer_sets(executor.run(queries))
        assert got == expected  # position i answers query i, always


class TestIOAccounting:
    def test_batch_one_reads_identical_to_per_query(self, relation, index):
        queries = mixed_workload(len(relation.domain), 15, base_seed=900)
        before = index.disk.stats.snapshot()
        per_query_protocol(index, queries, "highest_prob_first")
        baseline = index.disk.stats.delta_since(before).reads

        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=1,
        )
        before = index.disk.stats.snapshot()
        executor.run(queries)
        assert index.disk.stats.delta_since(before).reads == baseline

    @pytest.mark.parametrize("batch_size", [4, 15])
    def test_batching_never_reads_more(self, relation, index, batch_size):
        queries = mixed_workload(len(relation.domain), 15, base_seed=900)
        before = index.disk.stats.snapshot()
        per_query_protocol(index, queries, "highest_prob_first")
        baseline = index.disk.stats.delta_since(before).reads

        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=batch_size,
        )
        before = index.disk.stats.snapshot()
        executor.run(queries)
        assert index.disk.stats.delta_since(before).reads <= baseline


class TestPinHygiene:
    def test_pins_released_after_run(self, relation, index):
        queries = mixed_workload(len(relation.domain), 12, base_seed=1100)
        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=6,
        )
        executor.run(queries)
        assert index.pool.pinned_page_ids() == []

    def test_pins_released_on_mid_batch_exception(self, relation, index):
        # A sketch-mode similarity query against a sketch-less index
        # makes the inverted index raise *after* the shared-list
        # prefetch has pinned pages; the finally block must still
        # release every pin.
        from repro.sketch import sketch_override

        shared = random_query(len(relation.domain), seed=1300)
        queries = [
            EqualityThresholdQuery(shared, 0.05),
            SimilarityThresholdQuery(shared, 0.5),
            EqualityThresholdQuery(shared, 0.1),
        ]
        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=3,
        )
        with sketch_override("exact"), pytest.raises(QueryError):
            executor.run(queries)
        assert index.pool.pinned_page_ids() == []

    def test_pins_released_under_fault_retries(self, relation, index):
        queries = mixed_workload(len(relation.domain), 12, base_seed=1500)
        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=4,
        )
        plan = FaultPlan(seed=11, read_error_rate=0.05, bit_rot_rate=0.02)
        with fault_plan(plan):
            executor.run(queries)
        assert index.pool.pinned_page_ids() == []


class TestTraceRecords:
    def test_batch_records_validate_and_order(self, relation, index):
        queries = mixed_workload(len(relation.domain), 8, base_seed=1700)
        executor = BatchExecutor(
            index,
            strategy="highest_prob_first",
            pool_size=POOL_SIZE,
            batch_size=4,
        )
        sink = MemorySink()
        with tracing(Tracer(sink)):
            executor.run(queries)
        validate_records(sink.records)

        begins = sink.of_kind("batch.begin")
        ends = sink.of_kind("batch.end")
        assert len(begins) == len(ends) == 2  # 8 queries / batch of 4
        assert all(r["size"] == 4 for r in begins)
        assert all(r["structure"] == "inv-index" for r in begins)
        assert all(r["strategy"] == "highest_prob_first" for r in begins)
        # Batches always run on fresh per-batch pools: no pool "mode".
        assert all("mode" not in r for r in begins)
        assert set(SCHEMA["batch.begin"].optional) == {"strategy"}

        per_batch = sink.of_kind("batch.query")
        assert len(per_batch) == 8
        # Every in-batch position is announced exactly once per batch.
        assert sorted(r["position"] for r in per_batch) == sorted([0, 1, 2, 3] * 2)

        for record in sink.of_kind("batch.shared_page"):
            assert record["queries"] >= 2

    def test_pdrtree_structure_label(self, relation, tree):
        queries = [
            EqualityThresholdQuery(
                random_query(len(relation.domain), seed=1900 + i), 0.05
            )
            for i in range(4)
        ]
        executor = BatchExecutor(tree, pool_size=POOL_SIZE, batch_size=2)
        sink = MemorySink()
        with tracing(Tracer(sink)):
            executor.run(queries)
        validate_records(sink.records)
        begins = sink.of_kind("batch.begin")
        assert begins and all(r["structure"] == "pdr-tree" for r in begins)
        assert all("strategy" not in r for r in begins)


class TestConstruction:
    def test_strategy_rejected_for_pdrtree(self, tree):
        with pytest.raises(QueryError):
            BatchExecutor(tree, strategy="highest_prob_first")

    def test_negative_pin_reserve_rejected(self, index):
        with pytest.raises(QueryError):
            BatchExecutor(index, pin_reserve=-1)

    def test_batch_size_from_env(self, index, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "9")
        assert BatchExecutor(index).batch_size == 9
