"""Unit tests for the block rank-join engine (`repro.exec.join`)."""

import pytest

from repro.core import EqualityTopKQuery, QueryError, QueryStats, joins
from repro.exec import (
    JOIN_BLOCK_ENV,
    BlockJoinExecutor,
    join_block_override,
    resolve_join_block,
)
from repro.invindex import STRATEGIES, ProbabilisticInvertedIndex
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.pdrtree import PDRTree
from repro.storage import BufferPool

from tests.invindex.conftest import random_relation

POOL_SIZE = 100


@pytest.fixture(scope="module")
def dataset():
    right = random_relation(150, 10, seed=7)
    outer = random_relation(32, 10, seed=41)
    index = ProbabilisticInvertedIndex(len(right.domain))
    index.build(right)
    return outer, right, index


def _snap(result):
    return [(p.left_tid, p.right_tid, p.score) for p in result]


def _bits(result):
    return [(p.left_tid, p.right_tid, p.score.hex()) for p in result]


class TestResolveJoinBlock:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(JOIN_BLOCK_ENV, raising=False)
        assert resolve_join_block() == 1

    @pytest.mark.parametrize("raw", ["", "off", "default", " OFF "])
    def test_unset_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(JOIN_BLOCK_ENV, raw)
        assert resolve_join_block() == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv(JOIN_BLOCK_ENV, "16")
        assert resolve_join_block() == 16

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOIN_BLOCK_ENV, "16")
        assert resolve_join_block(4) == 4

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOIN_BLOCK_ENV, "16")
        with join_block_override(8):
            assert resolve_join_block() == 8
        assert resolve_join_block() == 16

    @pytest.mark.parametrize("raw", ["0", "-3", "2.5", "many"])
    def test_bad_env_values(self, monkeypatch, raw):
        monkeypatch.setenv(JOIN_BLOCK_ENV, raw)
        with pytest.raises(QueryError):
            resolve_join_block()

    def test_bad_arguments(self):
        with pytest.raises(QueryError):
            resolve_join_block(0)
        with pytest.raises(QueryError):
            with join_block_override(0):
                pass


class TestConstruction:
    def test_strategy_requires_inverted_inner(self, dataset):
        outer, right, index = dataset
        BlockJoinExecutor(right, index, strategy="row_pruning")
        with pytest.raises(QueryError):
            BlockJoinExecutor(right, strategy="row_pruning")

    def test_invalid_pool_and_reserve(self, dataset):
        _, right, _ = dataset
        with pytest.raises(QueryError):
            BlockJoinExecutor(right, pool_size=0)
        with pytest.raises(QueryError):
            BlockJoinExecutor(right, pin_reserve=-1)

    def test_threshold_and_k_validation(self, dataset):
        outer, right, _ = dataset
        engine = BlockJoinExecutor(right, block_size=4)
        with pytest.raises(QueryError):
            engine.petj(outer, 0.0)
        with pytest.raises(QueryError):
            engine.pej_top_k(outer, 0)
        with pytest.raises(QueryError):
            engine.dstj(outer, -0.5)

    def test_adaptive_defaults_track_block_size(self, dataset):
        _, right, _ = dataset
        assert BlockJoinExecutor(right, block_size=1).adaptive_tau is False
        assert BlockJoinExecutor(right, block_size=4).adaptive_tau is True
        assert (
            BlockJoinExecutor(right, block_size=4, adaptive_tau=False).adaptive_tau
            is False
        )


class TestProtocolIdentity:
    def _legacy(self, kind, outer, right, index, **kw):
        index.pool = BufferPool(index.disk, POOL_SIZE)
        before = index.disk.stats.snapshot()
        if kind == "petj":
            result = joins.petj(outer, right, kw["threshold"], right_index=index)
        else:
            result = joins.pej_top_k(outer, right, kw["k"], right_index=index)
        return result, index.disk.stats.delta_since(before).reads

    def _engine(self, kind, outer, right, index, block, **kw):
        index.pool = BufferPool(index.disk, POOL_SIZE)
        engine = BlockJoinExecutor(right, index, block_size=block)
        before = index.disk.stats.snapshot()
        if kind == "petj":
            result = engine.petj(outer, kw["threshold"])
        else:
            result = engine.pej_top_k(outer, kw["k"])
        return result, index.disk.stats.delta_since(before).reads

    def test_block_one_reproduces_per_probe_reads_exactly(self, dataset):
        outer, right, index = dataset
        for kind, kw in (("petj", {"threshold": 0.25}), ("pej_top_k", {"k": 5})):
            legacy, legacy_reads = self._legacy(kind, outer, right, index, **kw)
            engine, engine_reads = self._engine(
                kind, outer, right, index, 1, **kw
            )
            assert _snap(engine) == _snap(legacy)
            assert engine.stats == legacy.stats
            assert engine.num_probes == legacy.num_probes
            assert engine_reads == legacy_reads

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_block_one_probes_with_the_given_strategy(self, dataset, strategy):
        """Block size 1 on the caller's pool is the per-probe loop run
        with ``strategy=``: same merged stats, same reads."""
        outer, right, index = dataset
        index.pool = BufferPool(index.disk, POOL_SIZE)
        before = index.disk.stats.snapshot()
        stats = QueryStats()
        for tid in outer.tids():
            query = EqualityTopKQuery(outer.uda_of(tid), 5)
            stats.merge(index.execute(query, strategy=strategy).stats)
        reads = index.disk.stats.delta_since(before).reads
        index.pool = BufferPool(index.disk, POOL_SIZE)
        before = index.disk.stats.snapshot()
        result = BlockJoinExecutor(
            right, index, strategy=strategy, block_size=1
        ).pej_top_k(outer, 5)
        assert result.stats == stats
        assert index.disk.stats.delta_since(before).reads == reads

    def test_blocks_never_read_more_pages(self, dataset):
        outer, right, index = dataset
        for kind, kw in (("petj", {"threshold": 0.25}), ("pej_top_k", {"k": 5})):
            _, baseline_reads = self._legacy(kind, outer, right, index, **kw)
            for block in (4, 8, 32):
                result, reads = self._engine(
                    kind, outer, right, index, block, **kw
                )
                assert reads <= baseline_reads, (kind, block)

    def test_pool_size_none_uses_installed_pool(self, dataset):
        """pool_size=None probes whatever pool the caller installed —
        the legacy join protocol — so a warm pool is *not* reset."""
        outer, right, index = dataset
        index.pool = BufferPool(index.disk, POOL_SIZE)
        engine = BlockJoinExecutor(right, index, block_size=4)
        engine.petj(outer, 0.3)
        warm = index.pool
        engine.petj(outer, 0.3)
        assert index.pool is warm

    def test_pool_size_installs_fresh_pool_per_block(self, dataset):
        outer, right, index = dataset
        index.pool = BufferPool(index.disk, POOL_SIZE)
        original = index.pool
        engine = BlockJoinExecutor(
            right, index, block_size=4, pool_size=POOL_SIZE
        )
        engine.petj(outer, 0.3)
        assert index.pool is not original


class TestAdaptiveTau:
    def test_tau_raised_records_emitted(self, dataset):
        outer, right, index = dataset
        index.pool = BufferPool(index.disk, POOL_SIZE)
        engine = BlockJoinExecutor(right, index, block_size=8)
        sink = MemorySink()
        with tracing(Tracer(sink)):
            engine.pej_top_k(outer, 4)
        raised = sink.of_kind("join.tau_raised")
        assert raised, "adaptive top-k emitted no raised-bound records"
        # Floors are k-th pair scores: positive, and never decreasing.
        taus = [record["tau"] for record in raised]
        assert all(tau > 0.0 for tau in taus)
        assert taus == sorted(taus)
        # The elevated floor reaches the probes as their stopping bound.
        begins = sink.of_kind("strategy.begin")
        assert any(record.get("tau_floor", 0.0) > 0.0 for record in begins)

    def test_adaptive_never_changes_answers(self, dataset):
        outer, right, index = dataset
        for k in (1, 3, 9):
            index.pool = BufferPool(index.disk, POOL_SIZE)
            fixed = BlockJoinExecutor(
                right, index, block_size=8, adaptive_tau=False
            ).pej_top_k(outer, k)
            index.pool = BufferPool(index.disk, POOL_SIZE)
            adaptive = BlockJoinExecutor(
                right, index, block_size=8, adaptive_tau=True
            ).pej_top_k(outer, k)
            assert _snap(adaptive) == _snap(fixed)

    def test_adaptive_never_reads_more_posting_pages(self, dataset):
        outer, right, index = dataset

        def posting_reads(adaptive):
            index.pool = BufferPool(index.disk, POOL_SIZE)
            engine = BlockJoinExecutor(
                right,
                index,
                block_size=8,
                pool_size=POOL_SIZE,
                adaptive_tau=adaptive,
            )
            before = dict(index.disk.snapshot_tags())
            engine.pej_top_k(outer, 4)
            after = index.disk.snapshot_tags()
            return after.get("postings", 0) - before.get("postings", 0)

        assert posting_reads(True) <= posting_reads(False)

    def test_pdr_inner_takes_the_join_wide_floor(self):
        """The PDR-tree's top-k walk cuts at the join-wide floor too:
        never more node reads than the fixed path, strictly fewer for
        some k, and the reference join's answer bit for bit."""
        right = random_relation(2000, 30, seed=3)
        outer = random_relation(64, 30, seed=37)
        tree = PDRTree(len(right.domain))
        tree.build(right)

        def node_reads(run):
            tree.pool = BufferPool(tree.disk, POOL_SIZE)
            before = tree.disk.snapshot_tags()
            result = run()
            after = tree.disk.snapshot_tags()
            return result, after["pdr-node"] - before.get("pdr-node", 0)

        def blocked(k, adaptive):
            engine = BlockJoinExecutor(
                right,
                tree,
                block_size=8,
                pool_size=POOL_SIZE,
                adaptive_tau=adaptive,
            )
            return node_reads(lambda: engine.pej_top_k(outer, k))

        saved = []
        for k in (1, 3, 9, 25):
            reference, _ = node_reads(
                lambda: joins.pej_top_k(outer, right, k, right_index=tree)
            )
            adaptive, adaptive_reads = blocked(k, True)
            _, fixed_reads = blocked(k, False)
            assert _bits(adaptive) == _bits(reference), k
            assert adaptive_reads <= fixed_reads, k
            saved.append(fixed_reads - adaptive_reads)
        assert max(saved) > 0, saved


class TestBlockTracing:
    def test_blocks_are_bracketed(self, dataset):
        outer, right, index = dataset
        index.pool = BufferPool(index.disk, POOL_SIZE)
        engine = BlockJoinExecutor(right, index, block_size=10)
        sink = MemorySink()
        with tracing(Tracer(sink)):
            engine.petj(outer, 0.3)
        begins = sink.of_kind("join.block_begin")
        ends = sink.of_kind("join.block_end")
        expected_blocks = -(-len(outer) // 10)
        assert len(begins) == len(ends) == expected_blocks
        assert [record["block"] for record in begins] == list(
            range(expected_blocks)
        )
        assert all(record["mode"] == "shared-scan" for record in begins[:-1])
        sizes = [record["size"] for record in begins]
        assert sum(sizes) == len(outer)
