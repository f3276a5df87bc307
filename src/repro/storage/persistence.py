"""Binary persistence for simulated disks and index metadata.

The storage substrate is an in-memory page store; this module gives it a
durable form so an index built once (minutes for large datasets) can be
saved and reopened instantly.  The current format (version 2) is
deliberately simple and self-describing::

    8  bytes  magic  b"REPRODB2"
    4  bytes  u32    page size
    4  bytes  u32    metadata length
    n  bytes  JSON   envelope {next_page_id, tags, structure} (UTF-8)
    4  bytes  u32    number of pages
    per page: u32 page id, u32 CRC32, page bytes

Page ids are preserved exactly, so all intra-structure references
(tree roots, leaf chains, rids) stay valid.  Unallocated id gaps are
preserved through ``next_page_id`` in the metadata envelope, and page
allocation tags survive the round trip so per-tag I/O attribution works
on a reloaded disk.

Integrity and recovery
----------------------
Each page's CRC32 travels with it — the disk's *stored* checksum, not
one recomputed at save time, so a page torn in memory stays detectably
torn in the file.

Two read paths exist:

* :func:`load_disk` — strict; any structural damage raises
  :class:`SerializationError`.
* :func:`scan_disk` — the recovery path; it salvages every readable
  page, verifies each against its stored CRC, and returns a
  :class:`ScanReport` naming the corrupt pages and whether the image was
  truncated.  Index ``load`` paths use it to decide between transparent
  rebuild and failing loudly (see ``docs/fault-model.md``).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.core.exceptions import SerializationError
from repro.storage.disk import DiskManager, page_checksum

MAGIC = b"REPRODB2"
_U32 = struct.Struct("<I")


@dataclass
class ScanReport:
    """What :func:`scan_disk` found while salvaging a disk image."""

    #: Ids of pages whose bytes fail their stored CRC32.
    corrupt_page_ids: list[int] = field(default_factory=list)
    #: Whether the image ended mid-record (crash during save).
    truncated: bool = False

    @property
    def clean(self) -> bool:
        """True when every declared page was present and verified."""
        return not self.corrupt_page_ids and not self.truncated


def save_disk(handle: BinaryIO, disk: DiskManager, metadata: dict) -> None:
    """Write ``disk`` (and structure metadata) to an open binary file.

    Each page is written with the disk's *stored* checksum — the CRC of
    the bytes the writer intended — so corruption already present on the
    simulated disk (e.g. a torn write) remains detectable after reload.
    """
    tags = disk.tag_directory()
    envelope = {
        "next_page_id": disk._next_page_id,
        "tags": {str(pid): tag for pid, tag in sorted(tags.items())},
        "structure": metadata,
    }
    encoded = json.dumps(envelope).encode("utf-8")
    handle.write(MAGIC)
    handle.write(_U32.pack(disk.page_size))
    handle.write(_U32.pack(len(encoded)))
    handle.write(encoded)
    handle.write(_U32.pack(disk.num_pages))
    for page_id in disk.page_ids():
        handle.write(_U32.pack(page_id))
        handle.write(_U32.pack(disk.checksum_of(page_id)))
        handle.write(disk.raw_page_bytes(page_id))


def _read_exact(handle: BinaryIO, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise SerializationError(
            f"truncated file: wanted {size} bytes, got {len(data)}"
        )
    return data


def _read_header(handle: BinaryIO) -> tuple[int, dict]:
    """Parse magic + header; returns (page_size, envelope)."""
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise SerializationError(f"not a repro database file (magic {magic!r})")
    (page_size,) = _U32.unpack(_read_exact(handle, 4))
    (metadata_length,) = _U32.unpack(_read_exact(handle, 4))
    try:
        envelope = json.loads(_read_exact(handle, metadata_length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt metadata envelope: {exc}") from None
    return page_size, envelope


def _restore(
    disk: DiskManager,
    envelope: dict,
    pages: dict[int, bytes],
    checksums: dict[int, int],
) -> None:
    """Install salvaged pages, checksums, and tags into a fresh disk."""
    tags = envelope.get("tags", {})
    disk.install_image(
        pages,
        checksums,
        {pid: str(tags.get(str(pid), "untagged")) for pid in pages},
        int(envelope["next_page_id"]),
    )


def load_disk(handle: BinaryIO) -> tuple[DiskManager, dict]:
    """Read a disk and its structure metadata from an open binary file.

    Strict: a truncated or structurally damaged file raises
    :class:`SerializationError`.  Pages whose bytes fail their stored
    CRC are *loaded as-is* — the corruption is surfaced on first read
    through the counted path, exactly as on the original disk.  Use
    :func:`scan_disk` to detect such pages up front.
    """
    page_size, envelope = _read_header(handle)
    (num_pages,) = _U32.unpack(_read_exact(handle, 4))
    pages: dict[int, bytes] = {}
    checksums: dict[int, int] = {}
    for _ in range(num_pages):
        (page_id,) = _U32.unpack(_read_exact(handle, 4))
        (crc,) = _U32.unpack(_read_exact(handle, 4))
        data = handle.read(page_size)
        if len(data) != page_size:
            raise SerializationError("truncated page data")
        pages[page_id] = data
        checksums[page_id] = crc
    disk = DiskManager(page_size=page_size)
    _restore(disk, envelope, pages, checksums)
    return disk, envelope["structure"]


def scan_disk(handle: BinaryIO) -> tuple[DiskManager, dict, ScanReport]:
    """Salvage a (possibly damaged) disk image; never raises on torn data.

    Reads as many complete page records as the file contains, verifies
    each against its stored CRC, and reports corruption instead of
    raising.  Only an unreadable *header* (bad magic, mangled metadata
    envelope) still raises :class:`SerializationError` — with no
    envelope there is nothing to recover toward.

    Returns ``(disk, structure_metadata, report)``.  Corrupt pages are
    installed with their (mismatching) stored checksum, so any read of
    them through the counted path raises
    :class:`~repro.core.exceptions.ChecksumError` — a recovery that
    ignores the report still cannot serve bad bytes.
    """
    page_size, envelope = _read_header(handle)
    report = ScanReport()
    pages: dict[int, bytes] = {}
    checksums: dict[int, int] = {}
    raw = handle.read(4)
    if len(raw) != 4:
        report.truncated = True
        num_pages = 0
    else:
        (num_pages,) = _U32.unpack(raw)
    record = 2 * _U32.size + page_size
    for _ in range(num_pages):
        chunk = handle.read(record)
        if len(chunk) != record:
            report.truncated = True
            break
        (page_id,) = _U32.unpack_from(chunk, 0)
        (crc,) = _U32.unpack_from(chunk, 4)
        data = chunk[8:]
        pages[page_id] = data
        checksums[page_id] = crc
        if page_checksum(data) != crc:
            report.corrupt_page_ids.append(page_id)
    disk = DiskManager(page_size=page_size)
    _restore(disk, envelope, pages, checksums)
    return disk, envelope.get("structure", {}), report


def save_disk_to_path(path: str | Path, disk: DiskManager, metadata: dict) -> None:
    """Write a disk image to ``path`` (see :func:`save_disk`)."""
    with open(path, "wb") as handle:
        save_disk(handle, disk, metadata)


def load_disk_from_path(path: str | Path) -> tuple[DiskManager, dict]:
    """Read a disk image from ``path`` (see :func:`load_disk`)."""
    with open(path, "rb") as handle:
        return load_disk(handle)


def scan_disk_from_path(
    path: str | Path,
) -> tuple[DiskManager, dict, ScanReport]:
    """Salvage a disk image from ``path`` (see :func:`scan_disk`)."""
    with open(path, "rb") as handle:
        return scan_disk(handle)
