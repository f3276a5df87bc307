"""Tests for :mod:`repro.storage.backends`.

Three batteries:

* the backend *contract* (KeyError discipline, independent read copies,
  verbatim bytes) over every registered backend;
* the *differential* suite: identical answers, scores, order, reads, and
  per-tag read attribution across backends in measurement mode — the
  property that lets goldens bind to ``simulated`` while the other
  backends stay honest;
* durability: an ``mmap`` store survives close/reopen with its CRC
  accounting intact.
"""

import pytest

from repro.bench.harness import IndexUnderTest, measure_query
from repro.core import ConfigError, PageError
from repro.core.exceptions import ChecksumError
from repro.invindex import ProbabilisticInvertedIndex
from repro.pdrtree import PDRTree
from repro.storage import (
    BACKEND_NAMES,
    BackendSpec,
    DiskManager,
    MmapFileBackend,
    Page,
    SimulatedBackend,
    active_backend_spec,
    backend_scope,
    create_backend,
)

from tests.exec.test_batch import POOL_SIZE, mixed_workload
from tests.invindex.conftest import random_relation


def make_backend(name, tmp_path, page_size=64):
    if name == "mmap":
        return MmapFileBackend(tmp_path / "store.pages", page_size)
    return SimulatedBackend(page_size)


@pytest.fixture(params=BACKEND_NAMES)
def backend(request, tmp_path):
    instance = make_backend(request.param, tmp_path)
    yield instance
    instance.close()


class TestContract:
    def test_roundtrip(self, backend):
        backend.allocate(0, b"a" * 64)
        backend.allocate(1, b"b" * 64)
        assert backend.read(0) == b"a" * 64
        backend.write(0, b"c" * 64)
        assert backend.read(0) == b"c" * 64
        assert backend.read(1) == b"b" * 64

    def test_unknown_ids_raise_key_error(self, backend):
        with pytest.raises(KeyError):
            backend.read(7)
        with pytest.raises(KeyError):
            backend.write(7, b"x" * 64)
        with pytest.raises(KeyError):
            backend.deallocate(7)

    def test_double_allocate_raises(self, backend):
        backend.allocate(0, bytes(64))
        with pytest.raises(KeyError):
            backend.allocate(0, bytes(64))

    def test_read_returns_independent_copy(self, backend):
        backend.allocate(0, b"x" * 64)
        first = backend.read(0)
        backend.write(0, b"y" * 64)
        assert first == b"x" * 64

    def test_introspection(self, backend):
        for page_id in (3, 1, 2):
            backend.allocate(page_id, bytes(64))
        assert backend.page_ids() == [1, 2, 3]
        assert len(backend) == 3
        assert 2 in backend and 9 not in backend
        backend.deallocate(2)
        assert backend.page_ids() == [1, 3]
        assert 2 not in backend

    def test_slots_are_reused_after_deallocate(self, backend):
        # Ids above pages_per_segment / GROW_SLOTS force slot recycling.
        for page_id in range(6):
            backend.allocate(page_id, bytes([page_id]) * 64)
        backend.deallocate(2)
        backend.allocate(100, b"\xaa" * 64)
        assert backend.read(100) == b"\xaa" * 64
        for page_id in (0, 1, 3, 4, 5):
            assert backend.read(page_id) == bytes([page_id]) * 64

    def test_torn_bytes_stored_verbatim(self, backend):
        backend.allocate(0, b"\x01" * 64)
        torn = b"\x02" * 30 + b"\x01" * 34
        backend.write(0, torn)
        assert backend.read(0) == torn

    def test_close_is_idempotent(self, backend):
        backend.close()
        backend.close()


class TestDiskIntegration:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_disk_over_every_backend(self, name, tmp_path):
        disk = DiskManager(page_size=64, backend=make_backend(name, tmp_path))
        pid = disk.allocate_page(tag="postings")
        page = disk.read_page(pid)
        page.write_u32(0, 77)
        disk.write_page(page)
        assert disk.read_page(pid).read_u32(0) == 77
        assert disk.stats.reads == 2 and disk.stats.writes == 1
        assert disk.reads_by_tag == {"postings": 2}
        assert disk.backend.name == name
        assert name in repr(disk)
        disk.close()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_checksum_detection_composes(self, name, tmp_path):
        disk = DiskManager(page_size=64, backend=make_backend(name, tmp_path))
        pid = disk.allocate_page()
        disk.tamper_page(pid, b"\xee" * 64)
        with pytest.raises(ChecksumError):
            disk.read_page(pid)
        assert not disk.verify_page(pid)
        assert disk.stats.reads == 0
        disk.close()

    def test_backend_scope_reaches_new_disks(self):
        with backend_scope("mmap"):
            assert active_backend_spec() == BackendSpec("mmap")
            disk = DiskManager(page_size=64)
            assert disk.backend.name == "mmap"
            disk.close()
        assert DiskManager(page_size=64).backend.name == "simulated"

    def test_page_size_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="page size"):
            create_backend(SimulatedBackend(128), page_size=64)

    def test_deallocate_then_read_raises_everywhere(self, backend):
        disk = DiskManager(page_size=64, backend=backend)
        pid = disk.allocate_page()
        disk.deallocate_page(pid)
        with pytest.raises(PageError):
            disk.read_page(pid)
        with pytest.raises(PageError):
            disk.tag_of(pid)


class TestDifferential:
    """Identical measurement-mode results across every backend."""

    @pytest.fixture(scope="class")
    def relation(self):
        return random_relation(250, 12, seed=83)

    @pytest.fixture(scope="class")
    def workload(self, relation):
        return mixed_workload(len(relation.domain), 15, base_seed=19)

    def run_measurements(self, kind, builder, relation, workload, name):
        from repro.exec import ServingExecutor

        with backend_scope(name):
            index = builder(len(relation.domain))
            index.build(relation)
            assert index.disk.backend.name == name
            executor = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
            under_test = IndexUnderTest(kind, index)
            rows = []
            for query in workload:
                served = executor.execute(query)
                m = measure_query(under_test, query, POOL_SIZE)
                rows.append(
                    (
                        [(x.tid, x.score) for x in served.result.matches],
                        served.reads,
                        dict(served.reads_by_tag),
                        m.reads,
                        dict(m.reads_by_tag),
                    )
                )
            return rows

    @pytest.mark.parametrize(
        "kind,builder",
        [("inverted", ProbabilisticInvertedIndex), ("pdr", PDRTree)],
    )
    def test_backends_agree_in_measure_mode(
        self, kind, builder, relation, workload
    ):
        baseline = self.run_measurements(
            kind, builder, relation, workload, "simulated"
        )
        for name in BACKEND_NAMES[1:]:
            rows = self.run_measurements(kind, builder, relation, workload, name)
            assert rows == baseline, (
                f"{name} diverged from simulated: answers, order, reads, "
                "and reads_by_tag must all be identical"
            )


class TestMmapDurability:
    def test_close_reopen_preserves_pages_and_crcs(self, tmp_path):
        path = tmp_path / "store.pages"
        disk = DiskManager(page_size=64, backend=MmapFileBackend(path, 64))
        pids = [disk.allocate_page(tag=f"t{i}") for i in range(5)]
        for pid in pids:
            page = disk.read_page(pid)
            page.write_u32(0, pid * 11)
            disk.write_page(page)
        checksums = {pid: disk.checksum_of(pid) for pid in pids}
        disk.close()

        reopened = DiskManager(page_size=64, backend=MmapFileBackend(path, 64))
        assert reopened.page_ids() == pids
        for pid in pids:
            assert reopened.verify_page(pid)
            assert reopened.checksum_of(pid) == checksums[pid]
            assert reopened.read_page(pid).read_u32(0) == pid * 11
            assert reopened.tag_of(pid) == f"t{pid - pids[0]}"
        # The id allocator resumes where it left off — no id reuse.
        assert reopened.allocate_page() == pids[-1] + 1
        reopened.close()

    def test_reopen_detects_at_rest_corruption(self, tmp_path):
        path = tmp_path / "store.pages"
        disk = DiskManager(page_size=64, backend=MmapFileBackend(path, 64))
        pid = disk.allocate_page()
        page = disk.read_page(pid)
        page.write_u32(0, 9)
        disk.write_page(page)
        disk.close()
        # Flip a byte in the page file behind the store's back.
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        reopened = DiskManager(page_size=64, backend=MmapFileBackend(path, 64))
        assert not reopened.verify_page(pid)
        with pytest.raises(ChecksumError):
            reopened.read_page(pid)
        reopened.close()

    def test_reopen_page_size_mismatch_rejected(self, tmp_path):
        from repro.core.exceptions import StorageError

        path = tmp_path / "store.pages"
        DiskManager(page_size=64, backend=MmapFileBackend(path, 64)).close()
        with pytest.raises(StorageError, match="page size"):
            MmapFileBackend(path, 128)

    def test_file_without_sidecar_is_a_fresh_store(self, tmp_path):
        path = tmp_path / "store.pages"
        path.write_bytes(b"\xab" * 256)  # crash before close: no sidecar
        backend = MmapFileBackend(path, 64)
        assert len(backend) == 0
        backend.close()
