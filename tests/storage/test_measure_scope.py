"""Tests for :class:`repro.storage.MeasureScope` — the accounting window.

Every path that reports "the reads of a query" (the bench harness, the
shard transports, the serving executor's measure mode) opens one of
these, so the unit tests pin the window itself and one parametrised
test pins that the three paths agree with the bare definition.
"""

import pytest

from repro.bench import IndexUnderTest, measure_query
from repro.exec import ServingExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.obs.metrics import MetricsRegistry
from repro.pdrtree import PDRTree
from repro.shard import measured_probe
from repro.storage import BufferPool, DiskManager, MeasureScope

from tests.exec.test_batch import mixed_workload
from tests.invindex.conftest import random_relation

POOL_SIZE = 12


class TestWindow:
    def test_counts_only_what_happens_inside(self):
        disk = DiskManager(page_size=64)
        a = disk.allocate_page(tag="alpha")
        b = disk.allocate_page(tag="beta")
        disk.read_page(a)  # before the window: not counted
        with MeasureScope(disk) as scope:
            disk.read_page(b)
            disk.read_page(b)
            disk.write_page(disk.read_page(b))
        disk.read_page(a)  # after the window: not counted
        assert scope.reads == 3
        assert scope.stats.reads == 3 and scope.stats.writes == 1
        # "alpha" saw no read inside the window, so it is dropped.
        assert scope.reads_by_tag == {"beta": 3}

    def test_windows_nest(self):
        disk = DiskManager(page_size=64)
        pid = disk.allocate_page(tag="t")
        with MeasureScope(disk) as outer:
            disk.read_page(pid)
            with MeasureScope(disk) as inner:
                disk.read_page(pid)
        assert (inner.reads, outer.reads) == (1, 2)

    def test_closes_on_exception(self):
        disk = DiskManager(page_size=64)
        pid = disk.allocate_page(tag="t")
        with pytest.raises(RuntimeError):
            with MeasureScope(disk) as scope:
                disk.read_page(pid)
                raise RuntimeError("boom")
        assert scope.reads == 1 and scope.reads_by_tag == {"t": 1}

    def test_optional_sources_are_opt_in(self):
        disk = DiskManager(page_size=64)
        pool = BufferPool(disk, capacity=2)
        pid = pool.new_page(tag="t").page_id
        registry = MetricsRegistry()
        registry.inc("before")
        pool.fetch_page(pid)
        with MeasureScope(disk, metrics=registry, pool=pool) as scope:
            registry.inc("inside", 2)
            pool.fetch_page(pid)
        assert scope.metrics == {"inside": 2}
        assert (scope.pool_hits, scope.pool_misses) == (1, 0)
        with MeasureScope(disk) as bare:
            pass
        assert not hasattr(bare, "metrics") and not hasattr(bare, "pool_hits")


@pytest.fixture(scope="module")
def relation():
    return random_relation(200, 10, seed=29)


@pytest.fixture(scope="module", params=["inverted", "pdr"])
def family(request, relation):
    if request.param == "inverted":
        index = ProbabilisticInvertedIndex(len(relation.domain))
        strategy = "row_pruning"
    else:
        index = PDRTree(len(relation.domain))
        strategy = None
    index.build(relation)
    return index, strategy


def _via_measure_query(index, strategy, query):
    measured = measure_query(
        IndexUnderTest("under-test", index, strategy), query, POOL_SIZE
    )
    return measured.reads, measured.reads_by_tag


def _via_measured_probe(index, strategy, query):
    _, reads, reads_by_tag, _ = measured_probe(
        index, strategy, query, 0.0, POOL_SIZE
    )
    return reads, reads_by_tag


def _via_serving_measure(index, strategy, query):
    served = ServingExecutor(
        index, strategy=strategy, mode="measure", pool_size=POOL_SIZE
    ).execute(query)
    return served.reads, served.reads_by_tag


@pytest.mark.parametrize(
    "path", [_via_measure_query, _via_measured_probe, _via_serving_measure]
)
def test_every_measuring_path_reports_the_same_window(family, relation, path):
    index, strategy = family
    for query in mixed_workload(len(relation.domain), 6, base_seed=11):
        # The definition: fresh pool, *then* open the window.
        index.pool = BufferPool(index.disk, POOL_SIZE)
        with MeasureScope(index.disk) as scope:
            index.execute(query, strategy=strategy)
        assert scope.reads > 0
        assert path(index, strategy, query) == (scope.reads, scope.reads_by_tag)
