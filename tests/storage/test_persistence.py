"""Tests for :mod:`repro.storage.persistence` and index save/load."""

import io

import numpy as np
import pytest

from repro.core import (
    EqualityThresholdQuery,
    EqualityTopKQuery,
    QueryError,
    SerializationError,
    UncertainAttribute,
)
from repro.datagen import gen3_dataset, uniform_dataset
from repro.invindex import ProbabilisticInvertedIndex
from repro.pdrtree import PDRTree, PDRTreeConfig
from repro.storage import BufferPool, DiskManager
from repro.storage.persistence import (
    MAGIC,
    load_disk,
    load_disk_from_path,
    save_disk,
    save_disk_to_path,
    scan_disk,
)


class TestDiskRoundTrip:
    def test_pages_and_metadata_survive(self):
        disk = DiskManager(page_size=128)
        pids = [disk.allocate_page() for _ in range(5)]
        for pid in pids:
            page = disk.read_page(pid)
            page.write_u32(0, pid * 7 + 1)
            disk.write_page(page)
        disk.deallocate_page(pids[2])  # leave an id gap
        buffer = io.BytesIO()
        save_disk(buffer, disk, {"hello": "world"})
        buffer.seek(0)
        loaded, metadata = load_disk(buffer)
        assert metadata == {"hello": "world"}
        assert loaded.page_size == 128
        assert loaded.num_pages == 4
        for pid in pids:
            if pid == pids[2]:
                continue
            assert loaded.read_page(pid).read_u32(0) == pid * 7 + 1
        # Fresh allocations continue past the old id space.
        assert loaded.allocate_page() == disk._next_page_id

    def test_bad_magic_rejected(self):
        buffer = io.BytesIO(b"NOTADB00" + b"\x00" * 100)
        with pytest.raises(SerializationError):
            load_disk(buffer)

    def test_truncated_file_rejected(self):
        disk = DiskManager(page_size=64)
        disk.allocate_page()
        buffer = io.BytesIO()
        save_disk(buffer, disk, {})
        truncated = io.BytesIO(buffer.getvalue()[:-10])
        with pytest.raises(SerializationError):
            load_disk(truncated)

    def test_tags_survive_round_trip(self):
        disk = DiskManager(page_size=64)
        disk.allocate_page(tag="tuples")
        disk.allocate_page(tag="postings")
        buffer = io.BytesIO()
        save_disk(buffer, disk, {})
        buffer.seek(0)
        loaded, _ = load_disk(buffer)
        assert loaded.tag_of(0) == "tuples"
        assert loaded.tag_of(1) == "postings"

    def test_checksums_survive_round_trip(self):
        disk = DiskManager(page_size=64)
        pid = disk.allocate_page()
        page = disk.read_page(pid)
        page.write_u32(0, 99)
        disk.write_page(page)
        buffer = io.BytesIO()
        save_disk(buffer, disk, {})
        buffer.seek(0)
        loaded, _ = load_disk(buffer)
        assert loaded.checksum_of(pid) == disk.checksum_of(pid)
        assert loaded.verify_page(pid)

    def test_v1_image_is_refused(self):
        # A pre-checksum image (v1 magic, no CRC column, no tags) is no
        # longer read: nothing writes one, so both read paths refuse it
        # by its magic like any other foreign file.
        import struct

        envelope = b'{"next_page_id": 1, "structure": {"old": true}}'
        image = b"".join([
            b"REPRODB1",
            struct.pack("<I", 64),
            struct.pack("<I", len(envelope)),
            envelope,
            struct.pack("<I", 1),
            struct.pack("<I", 0),
            bytes(64),
        ])
        for read in (load_disk, scan_disk):
            with pytest.raises(SerializationError, match="REPRODB1"):
                read(io.BytesIO(image))


class TestScanDisk:
    def make_image(self, num_pages=4):
        disk = DiskManager(page_size=64)
        for i in range(num_pages):
            pid = disk.allocate_page(tag="tuples" if i == 0 else "postings")
            page = disk.read_page(pid)
            page.write_u32(0, i + 1)
            disk.write_page(page)
        buffer = io.BytesIO()
        save_disk(buffer, disk, {"kind": "test"})
        return disk, buffer.getvalue()

    def test_clean_image(self):
        _, image = self.make_image()
        loaded, metadata, report = scan_disk(io.BytesIO(image))
        assert report.clean
        assert metadata == {"kind": "test"}
        assert loaded.num_pages == 4

    def test_detects_torn_page(self):
        disk, image = self.make_image()
        # Flip a byte inside page 2's payload (records are trailing,
        # 4 + 4 + 64 bytes each).
        records_start = len(image) - 4 * (4 + 4 + 64)
        offset = records_start + 2 * (4 + 4 + 64) + 8 + 10
        damaged = bytearray(image)
        damaged[offset] ^= 0xFF
        loaded, _, report = scan_disk(io.BytesIO(bytes(damaged)))
        assert report.corrupt_page_ids == [2]
        assert not report.truncated
        # The corrupt page still raises on a counted read.
        from repro.core.exceptions import ChecksumError

        with pytest.raises(ChecksumError):
            loaded.read_page(2)
        # Intact pages read fine.
        assert loaded.read_page(1).read_u32(0) == 2

    def test_detects_truncation(self):
        _, image = self.make_image()
        loaded, metadata, report = scan_disk(io.BytesIO(image[:-30]))
        assert report.truncated
        assert not report.clean
        assert metadata == {"kind": "test"}
        assert loaded.num_pages == 3  # the last record was torn off

    def test_unreadable_header_still_raises(self):
        with pytest.raises(SerializationError):
            scan_disk(io.BytesIO(b"NOTADB00" + b"\x00" * 64))
        with pytest.raises(SerializationError):
            scan_disk(io.BytesIO(MAGIC))  # header cut short


@pytest.fixture(scope="module")
def relation():
    return uniform_dataset(num_tuples=400, seed=13)


class TestInvertedIndexPersistence:
    def test_round_trip_answers_identical(self, relation, tmp_path):
        index = ProbabilisticInvertedIndex(len(relation.domain))
        index.build(relation)
        path = tmp_path / "index.reprodb"
        index.save(path)
        reopened = ProbabilisticInvertedIndex.load(path)
        q = relation.uda_of(3)
        for query in (EqualityThresholdQuery(q, 0.2), EqualityTopKQuery(q, 7)):
            expected = [(m.tid, m.score) for m in index.execute(query)]
            got = [(m.tid, m.score) for m in reopened.execute(query)]
            assert got == expected

    def test_reopened_index_supports_updates(self, relation, tmp_path):
        index = ProbabilisticInvertedIndex(len(relation.domain))
        index.build(relation)
        path = tmp_path / "index.reprodb"
        index.save(path)
        reopened = ProbabilisticInvertedIndex.load(path)
        new_tid = len(relation)
        reopened.insert(new_tid, UncertainAttribute.from_pairs([(0, 1.0)]))
        q = UncertainAttribute.from_pairs([(0, 1.0)])
        assert new_tid in reopened.execute(
            EqualityThresholdQuery(q, 0.99)
        ).tid_set()
        reopened.delete(new_tid)
        assert new_tid not in reopened.execute(
            EqualityThresholdQuery(q, 0.99)
        ).tid_set()

    def test_wrong_kind_rejected(self, relation, tmp_path):
        tree = PDRTree(len(relation.domain))
        tree.build(relation)
        path = tmp_path / "tree.reprodb"
        tree.save(path)
        with pytest.raises(QueryError, match="not an inverted index"):
            ProbabilisticInvertedIndex.load(path)


class TestPDRTreePersistence:
    def test_round_trip_answers_identical(self, relation, tmp_path):
        tree = PDRTree(len(relation.domain))
        tree.build(relation)
        path = tmp_path / "tree.reprodb"
        tree.save(path)
        reopened = PDRTree.load(path)
        assert reopened.height == tree.height
        assert reopened.num_tuples == tree.num_tuples
        q = relation.uda_of(5)
        for query in (EqualityThresholdQuery(q, 0.2), EqualityTopKQuery(q, 9)):
            expected = [(m.tid, m.score) for m in tree.execute(query)]
            got = [(m.tid, m.score) for m in reopened.execute(query)]
            assert got == expected

    def test_config_survives(self, tmp_path):
        relation = gen3_dataset(num_tuples=200, domain_size=40, seed=3)
        config = PDRTreeConfig(
            split_strategy="top_down", divergence="l1", fold_size=8, bits=4
        )
        tree = PDRTree(len(relation.domain), config=config)
        tree.build(relation)
        path = tmp_path / "tree.reprodb"
        tree.save(path)
        reopened = PDRTree.load(path)
        assert reopened.config == config
        assert reopened.codec == tree.codec

    def test_reopened_tree_supports_updates(self, relation, tmp_path):
        tree = PDRTree(len(relation.domain))
        tree.build(relation)
        path = tmp_path / "tree.reprodb"
        tree.save(path)
        reopened = PDRTree.load(path)
        new_tid = len(relation)
        reopened.insert(new_tid, UncertainAttribute.from_pairs([(1, 1.0)]))
        q = UncertainAttribute.from_pairs([(1, 1.0)])
        assert new_tid in reopened.execute(
            EqualityThresholdQuery(q, 0.99)
        ).tid_set()
        reopened.delete(new_tid)
        assert reopened.num_tuples == tree.num_tuples

    def test_wrong_kind_rejected(self, relation, tmp_path):
        index = ProbabilisticInvertedIndex(len(relation.domain))
        index.build(relation)
        path = tmp_path / "index.reprodb"
        index.save(path)
        with pytest.raises(QueryError, match="not a PDR-tree"):
            PDRTree.load(path)

    def test_save_load_to_path_helpers(self, tmp_path):
        disk = DiskManager(page_size=64)
        disk.allocate_page()
        path = tmp_path / "raw.reprodb"
        save_disk_to_path(path, disk, {"n": 1})
        loaded, metadata = load_disk_from_path(path)
        assert metadata == {"n": 1}
        assert loaded.num_pages == 1
