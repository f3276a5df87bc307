"""Trace-driven invariant tests: the paper's claims, checked per event.

Every test here executes real queries under an in-memory tracer and
asserts properties of the emitted event stream:

* a ``lemma1`` early stop is only ever claimed when the Lemma 1 bound is
  actually below the (dynamic) threshold;
* the pruning strategies never read more posting pages than the
  exhaustive ``inv_index_search`` on the same query;
* every buffer-pool miss corresponds to exactly one physical disk read;
* every PDR-tree descend/prune verdict is consistent with Lemma 2, and
  the traversal only visits pages it previously decided to descend into
  — for equality and similarity walks alike;
* a traced PEQ encodes to valid JSONL on both index families.

Traces are captured with a fresh 100-frame buffer pool per execution
(the paper's measurement protocol) and a zero fault plan, so the streams
are deterministic.
"""

import dataclasses

import pytest

from repro.core import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
)
from repro.core.joins import petj
from repro.invindex import STRATEGIES, ProbabilisticInvertedIndex
from repro.obs.schema import PDR_VERDICTS, validate_jsonl, validate_records
from repro.obs.trace import MemorySink, Tracer, tracing, tracing_to_path
from repro.pdrtree import PDRTree
from repro.pdrtree.tree import EPSILON
from repro.storage import BufferPool, FaultPlan, fault_plan
from repro.storage.disk import DiskManager

from tests.invindex.conftest import random_query, random_relation

ALL_STRATEGIES = sorted(STRATEGIES)
DOMAIN_SIZE = 20
QUERY_SEEDS = range(6)
TAUS = (0.05, 0.1, 0.3)
K = 5
DIVERGENCES = ("l1", "l2", "kl", "symmetric_kl")


@pytest.fixture(scope="module")
def relation():
    return random_relation(300, DOMAIN_SIZE, seed=11)


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


@pytest.fixture(scope="module")
def sketched_tree(relation):
    # Small pages make a deep tree whose leaf boundaries are tight enough
    # for the L1/L2 deficit bound to prune.
    built = PDRTree(len(relation.domain), disk=DiskManager(page_size=1024))
    built.build(relation)
    built.build_sketch()
    return built


def run_traced(index, query, strategy=None, **execute_kwargs):
    """Execute ``query`` on a fresh 100-frame pool, returning the trace."""
    index.pool = BufferPool(index.disk, capacity=100)
    sink = MemorySink()
    if strategy is not None:
        execute_kwargs["strategy"] = strategy
    with fault_plan(FaultPlan()), tracing(Tracer(sink)):
        result = index.execute(query, **execute_kwargs)
    validate_records(sink.records)
    return sink, result


def threshold_queries():
    for seed in QUERY_SEEDS:
        for tau in TAUS:
            yield EqualityThresholdQuery(random_query(DOMAIN_SIZE, seed), tau)


def similarity_queries(relation):
    """DSTQ at the 2K-th nearest distance and DSQ-top-K, every divergence."""
    for seed in QUERY_SEEDS:
        q = random_query(DOMAIN_SIZE, seed)
        for divergence in DIVERGENCES:
            nearest = relation.execute(SimilarityTopKQuery(q, 2 * K, divergence))
            threshold = -nearest.matches[-1].score
            yield SimilarityThresholdQuery(q, threshold, divergence)
            yield SimilarityTopKQuery(q, K, divergence)


def posting_reads(sink):
    """Physical posting-page reads in one trace."""
    return sum(1 for r in sink.of_kind("disk.read") if r["tag"] == "postings")


class TestLemma1EarlyStop:
    def test_lemma1_claimed_only_when_bound_below_tau(self, index):
        """Reason ``lemma1`` must come with a bound strictly under tau."""
        lemma1_stops = 0
        for strategy in ALL_STRATEGIES:
            for query in threshold_queries():
                sink, _ = run_traced(index, query, strategy)
                for stop in sink.of_kind("strategy.stop"):
                    if stop["reason"] == "lemma1":
                        lemma1_stops += 1
                        assert stop["bound"] < stop["tau"], stop
        # Non-vacuous: the workload must actually trigger early stops.
        assert lemma1_stops > 0

    def test_lemma1_in_top_k_mode_uses_dynamic_threshold(self, index):
        lemma1_stops = 0
        for seed in QUERY_SEEDS:
            query = EqualityTopKQuery(random_query(DOMAIN_SIZE, seed), K)
            for strategy in ("highest_prob_first", "no_random_access"):
                sink, result = run_traced(index, query, strategy)
                for stop in sink.of_kind("strategy.stop"):
                    if stop["reason"] == "lemma1":
                        lemma1_stops += 1
                        assert stop["bound"] < stop["tau"], stop
                        if strategy == "highest_prob_first":
                            # The dynamic threshold is the k-th best score.
                            assert stop["tau"] == pytest.approx(
                                result.matches[K - 1].score
                            )
        assert lemma1_stops > 0

    def test_row_cutoff_bound_below_tau(self, index):
        cutoffs = 0
        for query in threshold_queries():
            sink, _ = run_traced(index, query, "row_pruning")
            for stop in sink.of_kind("strategy.stop"):
                if stop["reason"] == "row_cutoff":
                    cutoffs += 1
                    assert stop["bound"] < stop["tau"], stop
        assert cutoffs > 0

    def test_exactly_one_stop_per_query(self, index):
        """Every strategy run terminates with exactly one stop record."""
        for strategy in ALL_STRATEGIES:
            for query in threshold_queries():
                sink, _ = run_traced(index, query, strategy)
                assert sink.count("strategy.begin") == 1
                assert sink.count("strategy.stop") == 1
                (begin,) = sink.of_kind("strategy.begin")
                (stop,) = sink.of_kind("strategy.stop")
                assert begin["strategy"] == stop["strategy"] == strategy


class TestPruningNeverReadsMore:
    @pytest.mark.parametrize("pruning", ["row_pruning", "column_pruning"])
    def test_threshold_posting_reads_bounded_by_exhaustive(
        self, index, pruning
    ):
        """Pruning is a subset of the exhaustive scan, page for page."""
        for query in threshold_queries():
            baseline, base_result = run_traced(index, query, "inv_index_search")
            pruned, pruned_result = run_traced(index, query, pruning)
            assert posting_reads(pruned) <= posting_reads(baseline)
            # And pruning must not change the answer.
            assert [(m.tid, m.score) for m in pruned_result] == [
                (m.tid, m.score) for m in base_result
            ]

    @pytest.mark.parametrize("pruning", ["row_pruning", "column_pruning"])
    def test_top_k_posting_reads_bounded_by_exhaustive(self, index, pruning):
        for seed in QUERY_SEEDS:
            query = EqualityTopKQuery(random_query(DOMAIN_SIZE, seed), K)
            baseline, _ = run_traced(index, query, "inv_index_search")
            pruned, _ = run_traced(index, query, pruning)
            assert posting_reads(pruned) <= posting_reads(baseline)


class TestStorageConsistency:
    def test_pool_misses_equal_disk_reads(self, index, tree):
        """Under a zero fault plan every miss is exactly one physical read."""
        for query in threshold_queries():
            for strategy in ALL_STRATEGIES:
                sink, _ = run_traced(index, query, strategy)
                assert sink.count("pool.miss") == sink.count("disk.read")
                assert sink.count("pool.retry") == 0
            sink, _ = run_traced(tree, query)
            assert sink.count("pool.miss") == sink.count("disk.read")

    def test_misses_and_hits_partition_fetches(self, index):
        """Each fetched page's first touch is a miss; later ones are hits."""
        query = next(iter(threshold_queries()))
        sink, _ = run_traced(index, query, "inv_index_search")
        seen = set()
        for record in sink.records:
            if record["kind"] == "pool.miss":
                assert record["page_id"] not in seen
                seen.add(record["page_id"])
            elif record["kind"] == "pool.hit":
                assert record["page_id"] in seen

    def test_query_begin_and_end_bracket_the_trace(self, index):
        query = next(iter(threshold_queries()))
        sink, result = run_traced(index, query, "highest_prob_first")
        assert sink.records[0]["kind"] == "query.begin"
        assert sink.records[-1]["kind"] == "query.end"
        assert sink.records[0]["structure"] == "inv-index"
        assert sink.records[0]["strategy"] == "highest_prob_first"
        assert sink.records[-1]["matches"] == len(result)

    def test_metrics_delta_matches_trace_histogram(self, index):
        """The always-on counters are the per-kind histogram of the trace."""
        from repro.obs.metrics import METRICS

        query = next(iter(threshold_queries()))
        index.pool = BufferPool(index.disk, capacity=100)
        sink = MemorySink()
        before = METRICS.snapshot()
        with fault_plan(FaultPlan()), tracing(Tracer(sink)):
            index.execute(query, strategy="highest_prob_first")
        delta = METRICS.delta_since(before)
        kinds = sink.kinds()
        for kind in ("disk.read", "pool.hit", "pool.miss", "cursor.advance",
                     "verify.random_access"):
            assert delta.get(kind, 0) == kinds.get(kind, 0)
        (stop,) = sink.of_kind("strategy.stop")
        assert delta.get("strategy.stop." + stop["reason"]) == 1


class TestPDRTreeVerdicts:
    def test_verdicts_consistent_with_lemma2(self, tree):
        prunes = 0
        # High thresholds included: boundary bounds are generous maxima,
        # so pruning only kicks in once tau clears most subtree bounds.
        high_tau_queries = (
            EqualityThresholdQuery(random_query(DOMAIN_SIZE, seed), tau)
            for seed in QUERY_SEEDS
            for tau in (0.5, 0.8, 0.95)
        )
        for query in (*threshold_queries(), *high_tau_queries):
            sink, _ = run_traced(tree, query)
            for verdict in sink.of_kind("pdr.verdict"):
                assert verdict["verdict"] in PDR_VERDICTS
                if verdict["verdict"] == "descend":
                    assert verdict["bound"] >= verdict["tau"] - EPSILON
                else:
                    prunes += 1
                    assert verdict["bound"] < verdict["tau"]
        assert prunes > 0

    def test_top_k_verdicts_consistent(self, tree):
        for seed in QUERY_SEEDS:
            query = EqualityTopKQuery(random_query(DOMAIN_SIZE, seed), K)
            sink, _ = run_traced(tree, query)
            for verdict in sink.of_kind("pdr.verdict"):
                if verdict["verdict"] == "descend":
                    assert verdict["bound"] >= verdict["tau"] - EPSILON
                else:
                    assert verdict["bound"] < verdict["tau"]

    def test_only_descended_children_are_visited(self, tree):
        """Every visited non-root page was the subject of a descend verdict."""
        for query in threshold_queries():
            sink, _ = run_traced(tree, query)
            visits = sink.of_kind("pdr.visit")
            descended = {
                v["child"]
                for v in sink.of_kind("pdr.verdict")
                if v["verdict"] == "descend"
            }
            root = visits[0]["page_id"]
            for visit in visits[1:]:
                assert visit["page_id"] in descended or visit["page_id"] == root


    @pytest.mark.parametrize("sketch", ["off", "exact"])
    def test_similarity_verdicts_obey_lemma2(
        self, relation, sketched_tree, sketch
    ):
        """Similarity walks decide on the score scale (``-divergence``)
        under the same rule, and visit only pages they descended into."""
        prunes = 0
        for query in similarity_queries(relation):
            sink, _ = run_traced(sketched_tree, query, sketch=sketch)
            verdicts = sink.of_kind("pdr.verdict")
            for verdict in verdicts:
                assert verdict["bound"] <= 0.0
                if verdict["verdict"] == "descend":
                    if "tau" in verdict:
                        assert verdict["bound"] >= verdict["tau"] - EPSILON
                else:
                    prunes += 1
                    assert verdict["bound"] < verdict["tau"]
            descended = {v["child"] for v in verdicts if v["verdict"] == "descend"}
            visits = sink.of_kind("pdr.visit")
            assert visits[0]["page_id"] == sketched_tree.root_page_id
            for visit in visits[1:]:
                assert visit["page_id"] in descended
        assert prunes > 0


class TestTracedEquality:
    @pytest.mark.parametrize("strategy", [None, *ALL_STRATEGIES])
    def test_traced_peq_encodes_and_validates(
        self, tmp_path, index, tree, strategy
    ):
        """PEQ's threshold reaches the trace as a plain float: a JSONL
        sink encodes every record and the file validates."""
        structure = tree if strategy is None else index
        structure.pool = BufferPool(structure.disk, capacity=100)
        path = tmp_path / "peq.jsonl"
        query = EqualityQuery(random_query(DOMAIN_SIZE, 0))
        with tracing_to_path(path):
            result = structure.execute(query, strategy=strategy)
        assert validate_jsonl(path) > 0
        assert len(result) > 0


class TestJoinTracing:
    def test_petj_probe_events(self, relation, index):
        left = random_relation(5, DOMAIN_SIZE, seed=3)
        sink = MemorySink()
        with fault_plan(FaultPlan()), tracing(Tracer(sink)):
            index.pool = BufferPool(index.disk, capacity=100)
            result = petj(left, relation, 0.3, right_index=index)
        validate_records(sink.records)
        assert sink.count("join.begin") == 1
        assert sink.count("join.probe") == len(list(left.tids()))
        (end,) = sink.of_kind("join.end")
        assert end["probes"] == result.num_probes
        assert end["pairs"] == len(result)
        # Every probe runs a full inner query under the tracer.
        assert sink.count("query.begin") == end["probes"]


class TestBlockJoinTracing:
    def _run_blocked(self, relation, index, block_size, *, kind="petj", k=4):
        from repro.exec import BlockJoinExecutor

        left = random_relation(18, DOMAIN_SIZE, seed=3)
        sink = MemorySink()
        with fault_plan(FaultPlan()), tracing(Tracer(sink)):
            index.pool = BufferPool(index.disk, capacity=100)
            engine = BlockJoinExecutor(relation, index, block_size=block_size)
            if kind == "petj":
                result = engine.petj(left, 0.3)
            else:
                result = engine.pej_top_k(left, k)
        validate_records(sink.records)
        return sink, result, len(left)

    def test_blocks_bracket_every_probe(self, relation, index):
        """block_begin/block_end pair up, cover all probes, and the join
        brackets survive around them."""
        sink, result, outer = self._run_blocked(relation, index, 5)
        begins = sink.of_kind("join.block_begin")
        ends = sink.of_kind("join.block_end")
        assert len(begins) == len(ends) == -(-outer // 5)
        assert [b["block"] for b in begins] == [e["block"] for e in ends]
        assert sum(b["size"] for b in begins) == outer
        assert sink.count("join.probe") == outer
        assert sink.count("join.begin") == 1
        assert sink.count("join.end") == 1

    def test_shared_pages_have_multiple_probes(self, relation, index):
        """A join.shared_page record's sharer count is >= 2 by definition."""
        sink, _, _ = self._run_blocked(relation, index, 6, kind="topk")
        for record in sink.of_kind("join.shared_page"):
            assert record["probes"] >= 2

    def test_block_one_trace_matches_per_probe_join(self, relation, index):
        """Block size 1 runs the engine's own loop, yet emits
        byte-identical records, pairs, stats and probe counts to the
        per-probe reference join — every join, index and naive inner."""
        from repro.core import joins
        from repro.exec import BlockJoinExecutor

        left = random_relation(6, DOMAIN_SIZE, seed=3)

        def run(kind, arg, inner, use_engine):
            sink = MemorySink()
            with fault_plan(FaultPlan()), tracing(Tracer(sink)):
                index.pool = BufferPool(index.disk, capacity=100)
                if use_engine:
                    engine = BlockJoinExecutor(relation, inner, block_size=1)
                    result = getattr(engine, kind)(left, arg)
                else:
                    result = getattr(joins, kind)(
                        left, relation, arg, right_index=inner
                    )
            return {
                "trace": sink.jsonl_lines(),
                "pairs": [
                    (p.left_tid, p.right_tid, p.score.hex()) for p in result
                ],
                "stats": dataclasses.asdict(result.stats),
                "probes": result.num_probes,
            }

        for kind, arg in (("petj", 0.3), ("pej_top_k", 4), ("dstj", 0.8)):
            for inner in (index, None):
                engine = run(kind, arg, inner, True)
                reference = run(kind, arg, inner, False)
                assert reference["pairs"], kind
                assert reference["probes"] == len(left)
                for field in reference:
                    assert engine[field] == reference[field], (
                        kind,
                        inner,
                        field,
                    )

    def test_adaptive_tau_never_reads_more_posting_pages(self, relation, index):
        """The raised bound may only *save* posting I/O vs the fixed path."""
        from repro.exec import BlockJoinExecutor

        left = random_relation(18, DOMAIN_SIZE, seed=3)

        def run(adaptive):
            sink = MemorySink()
            with fault_plan(FaultPlan()), tracing(Tracer(sink)):
                index.pool = BufferPool(index.disk, capacity=100)
                engine = BlockJoinExecutor(
                    relation,
                    index,
                    block_size=6,
                    pool_size=100,
                    adaptive_tau=adaptive,
                )
                result = engine.pej_top_k(left, 4)
            validate_records(sink.records)
            return sink, [(p.left_tid, p.right_tid, p.score) for p in result]

        adaptive_sink, adaptive_pairs = run(True)
        fixed_sink, fixed_pairs = run(False)
        assert adaptive_pairs == fixed_pairs
        assert posting_reads(adaptive_sink) <= posting_reads(fixed_sink)
        assert adaptive_sink.count("join.tau_raised") > 0
        assert fixed_sink.count("join.tau_raised") == 0
