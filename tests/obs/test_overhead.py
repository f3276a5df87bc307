"""The zero-overhead-when-off guarantee, enforced as a tier-1 test.

The instrumentation contract is that disabled tracing costs *nothing*:
hot paths read the module global ``trace.ACTIVE`` and skip every bit of
event work — record construction included — when it is ``None``.  There
is deliberately no "no-op tracer" object: these tests poison
``Tracer.event`` and run real queries untraced, which would explode if
any code path called the tracer without the ``is not None`` guard.
"""

import pytest

from repro.core import EqualityThresholdQuery, EqualityTopKQuery
from repro.invindex import STRATEGIES, ProbabilisticInvertedIndex
from repro.obs import trace as trace_mod
from repro.obs.metrics import METRICS
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.pdrtree import PDRTree
from repro.storage import BufferPool, FaultPlan, fault_plan

from tests.invindex.conftest import random_query, random_relation

DOMAIN_SIZE = 15


@pytest.fixture(scope="module")
def relation():
    return random_relation(250, DOMAIN_SIZE, seed=17)


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


def test_tracing_is_off_by_default():
    assert trace_mod.ACTIVE is None
    assert trace_mod.BENCH_COLLECTOR is None
    assert trace_mod.active_tracer() is None


def test_disabled_path_never_touches_the_tracer(monkeypatch, index, tree):
    """Poison Tracer.event: untraced queries must never reach it."""

    def boom(self, kind, **fields):  # pragma: no cover - must not run
        raise AssertionError(f"Tracer.event({kind!r}) called while disabled")

    monkeypatch.setattr(Tracer, "event", boom)
    assert trace_mod.ACTIVE is None
    query = EqualityThresholdQuery(random_query(DOMAIN_SIZE, seed=1), 0.1)
    top_k = EqualityTopKQuery(random_query(DOMAIN_SIZE, seed=2), 5)
    with fault_plan(FaultPlan()):
        for strategy in sorted(STRATEGIES):
            index.pool = BufferPool(index.disk, capacity=100)
            index.execute(query, strategy=strategy)
            index.execute(top_k, strategy=strategy)
        tree.pool = BufferPool(tree.disk, capacity=100)
        tree.execute(query)
        tree.execute(top_k)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_tracing_does_not_change_io(index, strategy):
    """Reads with a tracer installed equal reads without one."""
    query = EqualityThresholdQuery(random_query(DOMAIN_SIZE, seed=3), 0.1)

    def reads(traced):
        index.pool = BufferPool(index.disk, capacity=100)
        before = index.disk.stats.snapshot()
        with fault_plan(FaultPlan()):
            if traced:
                with tracing(Tracer(MemorySink())):
                    result = index.execute(query, strategy=strategy)
            else:
                result = index.execute(query, strategy=strategy)
        return index.disk.stats.delta_since(before).reads, result.tids()

    untraced_reads, untraced_tids = reads(traced=False)
    traced_reads, traced_tids = reads(traced=True)
    assert traced_reads == untraced_reads
    assert traced_tids == untraced_tids


def test_metrics_accumulate_while_tracing_is_off(index):
    """The counter registry is the always-on half: no tracer required."""
    assert trace_mod.ACTIVE is None
    query = EqualityThresholdQuery(random_query(DOMAIN_SIZE, seed=4), 0.1)
    index.pool = BufferPool(index.disk, capacity=100)
    before = METRICS.snapshot()
    with fault_plan(FaultPlan()):
        index.execute(query, strategy="inv_index_search")
    delta = METRICS.delta_since(before)
    assert delta.get("disk.read", 0) > 0
    assert delta.get("pool.miss", 0) == delta["disk.read"]
    assert delta.get("strategy.stop.scan_complete", 0) == 1


@pytest.mark.parametrize(
    "strategy", sorted(set(STRATEGIES) - {"inv_index_search"})
)
def test_warm_served_verification_runs_nothing_per_tid(
    monkeypatch, relation, strategy
):
    """The hit path of block verification: no per-candidate Python at all.

    With tracing off, a served request whose candidates are all in the
    tuple store must verify each posting run as one block.  Poisoned
    here: the tracer, both per-tuple cache accessors, both per-tuple
    fetches and both per-tuple scorers.  The counters still add up, and
    are bumped once per block — not once per tid.
    """
    from repro.core import UncertainAttribute
    from repro.core.uda import QueryVector, _DenseScorer
    from repro.exec import GenerationalTupleCache, ServingExecutor
    from repro.obs.metrics import MetricsRegistry

    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    serve = ServingExecutor(index, strategy=strategy, mode="serve")
    queries = [
        EqualityThresholdQuery(random_query(DOMAIN_SIZE, seed=5), 0.05),
        EqualityTopKQuery(random_query(DOMAIN_SIZE, seed=6), 7),
    ]
    cold = [serve.execute(query) for query in queries]

    def poison(owner, name):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(f"{owner.__name__}.{name} ran on the hit path")

        monkeypatch.setattr(owner, name, boom)

    poison(Tracer, "event")
    poison(GenerationalTupleCache, "get")
    poison(GenerationalTupleCache, "__setitem__")
    poison(ProbabilisticInvertedIndex, "fetch_uda_arrays")
    poison(ProbabilisticInvertedIndex, "_decode_tuple")
    poison(_DenseScorer, "score")
    poison(UncertainAttribute, "equality_with_arrays")
    poison(QueryVector, "equality_with_arrays")

    bumps: dict[str, int] = {}
    inc = MetricsRegistry.inc

    def counting_inc(self, name, count=1):
        bumps[name] = bumps.get(name, 0) + 1
        inc(self, name, count)

    monkeypatch.setattr(MetricsRegistry, "inc", counting_inc)
    assert trace_mod.ACTIVE is None
    before = METRICS.snapshot()
    warm = [serve.execute(query) for query in queries]
    delta = METRICS.delta_since(before)

    assert [w.result.matches for w in warm] == [c.result.matches for c in cold]
    verified = sum(w.result.stats.random_accesses for w in warm)
    assert verified > 20
    assert delta["verify.random_access"] == verified
    assert delta["tuple_cache.hit"] == verified
    assert "tuple_cache.miss" not in delta and "disk.read" not in delta
    # One bump per verified block, far fewer than one per candidate.
    assert bumps["tuple_cache.hit"] == bumps["verify.random_access"]
    assert bumps["tuple_cache.hit"] * 4 < verified
