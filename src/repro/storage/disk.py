"""Simulated disk with physical-I/O accounting and page checksums.

The paper measures index performance as the number of disk I/O operations
per query.  We reproduce that metric with a counted "disk": a
:class:`DiskManager` that attributes every physical read and write to the
counters in :class:`~repro.storage.stats.IOStatistics`.  Wall-clock time
is deliberately *not* the metric — see DESIGN.md, "Substitutions".

A :class:`DiskManager` is shared by everything belonging to one index
structure (its tree pages, posting pages, heap pages, ...), so the
per-query read delta is exactly the paper's y-axis.

Storage backends
----------------
The disk is an *accounting and integrity shell*: the raw page bytes live
in a pluggable :class:`~repro.storage.backends.StorageBackend`
(config-dispatched via ``REPRO_BACKEND``; see
:mod:`repro.storage.backends` and ``docs/storage-backends.md``).  The
default ``simulated`` backend is the original in-memory dict, so the
paper's figures are byte-identical; the ``mmap`` backend persists pages
in a real file (wall-clock numbers mean something).  Counting, tagging,
checksums, and fault injection all happen *here*, above the backend, so
the simulated I/O counts are identical under every backend.

Integrity
---------
Every page carries a CRC32 checksum, recomputed on each write and
verified on each read.  Checksums are stored *out-of-band* (a side table
keyed by page id, mirroring the sector-metadata area of a real device),
so page payload capacity — and therefore every simulated I/O count — is
exactly what it was without them.  A mismatch raises
:class:`~repro.core.exceptions.ChecksumError` *before* the read is
counted: only successful, verified page transfers contribute to the
paper's metric.  Fault injection (see :mod:`repro.storage.faults`) hooks
into both paths to exercise the detection machinery.

Tag accounting is *strict* across the whole page lifecycle: a page
either has an allocation tag or accessing it raises
:class:`~repro.core.exceptions.PageError` — reads are never silently
attributed to ``"untagged"`` for a page the disk does not know, and a
read whose attribution would fail is not counted.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.core.exceptions import ChecksumError, PageError
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.stats import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports disk)
    from repro.storage.backends import StorageBackend
    from repro.storage.faults import FaultPlan


def page_checksum(data: bytes) -> int:
    """The CRC32 checksum of a page's bytes (unsigned 32-bit)."""
    return zlib.crc32(data) & 0xFFFFFFFF


class DiskManager:
    """A counted page store over a pluggable byte backend.

    Parameters
    ----------
    page_size:
        Size of every page in bytes (default 8 KB, as in the paper).
    fault_plan:
        Fault-injection plan for this disk.  ``None`` (the default)
        consults :func:`repro.storage.faults.active_plan`, which resolves
        to the process-wide override or the ``REPRO_FAULT_*`` environment
        knobs; pass a plan with all rates zero to force a clean disk
        regardless of the environment.
    backend:
        The byte store underneath the accounting: a
        :class:`~repro.storage.backends.StorageBackend` instance, a
        registry name (``"simulated"``, ``"mmap"``), or
        ``None`` to consult the process override / ``REPRO_BACKEND``
        (default ``simulated``).  A durable backend reopened on an
        existing store restores its saved accounting (checksums, tags,
        next page id) so CRC verification spans process restarts.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        fault_plan: "FaultPlan | None" = None,
        backend: "StorageBackend | str | None" = None,
    ) -> None:
        from repro.storage.backends import create_backend

        self.page_size = page_size
        self.stats = IOStatistics()
        self.backend = create_backend(backend, page_size=page_size)
        #: Out-of-band CRC32 of each page's *intended* bytes.  Lives beside
        #: the payload (like a device's sector metadata), so it consumes no
        #: page capacity and no simulated I/O.
        self._checksums: dict[int, int] = {}
        self._tags: dict[int, str] = {}
        self._next_page_id = 0
        #: Physical reads attributed to each allocation tag.
        self.reads_by_tag: dict[str, int] = {}
        # Imported lazily: faults.py subclasses DiskManager.
        from repro.storage.faults import FaultInjector, active_plan

        self.faults = FaultInjector(active_plan(fault_plan))
        meta = self.backend.load_meta()
        if meta is not None:
            self._next_page_id = int(meta["next_page_id"])
            self._checksums = {
                int(pid): int(crc) for pid, crc in meta["checksums"].items()
            }
            self._tags = {
                int(pid): str(tag) for pid, tag in meta["tags"].items()
            }

    # -- lifecycle ----------------------------------------------------------

    def allocate_page(self, tag: str = "untagged") -> int:
        """Allocate a fresh zero-filled page and return its id.

        ``tag`` names the component the page belongs to ("postings",
        "tuples", "pdr-node", ...); every later physical read of the
        page is attributed to it in :attr:`reads_by_tag`.  Allocation
        itself is not counted as a read or a write.
        """
        page_id = self._next_page_id
        self._next_page_id += 1
        data = bytes(self.page_size)
        self.backend.allocate(page_id, data)
        self._checksums[page_id] = page_checksum(data)
        self._tags[page_id] = tag
        self.stats.record_allocation()
        return page_id

    def tag_of(self, page_id: int) -> str:
        """The allocation tag of ``page_id``; strict (unknown -> PageError)."""
        try:
            return self._tags[page_id]
        except KeyError:
            raise PageError(f"unknown page {page_id}") from None

    def tag_directory(self) -> dict[int, str]:
        """A copy of the page-id -> allocation-tag table."""
        return dict(self._tags)

    def snapshot_tags(self) -> dict[str, int]:
        """A copy of the per-tag read counters (pair with delta math)."""
        return dict(self.reads_by_tag)

    def deallocate_page(self, page_id: int) -> None:
        """Release ``page_id``.  Accessing it afterwards raises PageError."""
        try:
            self.backend.deallocate(page_id)
        except KeyError:
            raise PageError(
                f"cannot deallocate unknown page {page_id}"
            ) from None
        del self._checksums[page_id]
        del self._tags[page_id]

    def close(self) -> None:
        """Detach from the backend, saving accounting meta if it is durable.

        A durable backend (``mmap``) persists the checksum and tag side
        tables alongside its page bytes, so a later
        ``DiskManager(backend=MmapFileBackend(path))`` verifies the same
        CRCs it would have in the original process.  Ephemeral backends
        just release their resources; close is idempotent either way.
        """
        if self.backend.persistent:
            self.backend.save_meta(
                {
                    "next_page_id": self._next_page_id,
                    "checksums": {
                        str(pid): crc
                        for pid, crc in sorted(self._checksums.items())
                    },
                    "tags": {
                        str(pid): tag
                        for pid, tag in sorted(self._tags.items())
                    },
                }
            )
        self.backend.close()

    # -- integrity ----------------------------------------------------------

    def _stored_checksum(self, page_id: int) -> int:
        """The recorded (intended) CRC32 of ``page_id``; strict lookup."""
        try:
            return self._checksums[page_id]
        except KeyError:
            raise PageError(f"unknown page {page_id}") from None

    def checksum_of(self, page_id: int) -> int:
        """The stored (intended) CRC32 of ``page_id``; no I/O is counted."""
        return self._stored_checksum(page_id)

    def raw_page_bytes(self, page_id: int) -> bytes:
        """The stored bytes of ``page_id``, uncounted and unverified.

        An offline access path for persistence and integrity probes; the
        counted, verified path is :meth:`read_page`.
        """
        try:
            return self.backend.read(page_id)
        except KeyError:
            raise PageError(f"unknown page {page_id}") from None

    def tamper_page(self, page_id: int, data: bytes) -> None:
        """Overwrite stored bytes *without* updating the checksum.

        Models at-rest corruption (a medium error under the device's
        error-correction radar): the recorded checksum still describes
        the intended bytes, so every later counted read of the page
        fails verification.  Used by the fault and recovery harnesses.
        """
        if len(data) != self.page_size:
            raise PageError(
                f"page {page_id}: tamper buffer is {len(data)} bytes, "
                f"expected {self.page_size}"
            )
        try:
            self.backend.write(page_id, bytes(data))
        except KeyError:
            raise PageError(f"unknown page {page_id}") from None

    def verify_page(self, page_id: int) -> bool:
        """Whether ``page_id``'s stored bytes match its stored checksum.

        An offline integrity probe (recovery scans, tests): reads nothing
        through the counted path and never raises on mismatch.  Uses the
        same strict lookups as :meth:`read_page`, so an unknown page
        fails identically everywhere in the lifecycle.
        """
        return page_checksum(self.raw_page_bytes(page_id)) == self._stored_checksum(
            page_id
        )

    # -- physical I/O ---------------------------------------------------------

    def read_page(self, page_id: int) -> Page:
        """Physically read and verify ``page_id``; counts one read (and tag).

        Raises :class:`~repro.core.exceptions.TransientReadError` on an
        injected device error and
        :class:`~repro.core.exceptions.ChecksumError` when the returned
        bytes fail CRC verification (in-flight bit rot, or a torn write
        persisted earlier).  Failed attempts are *not* counted as reads —
        including a failed tag attribution, which raises
        :class:`~repro.core.exceptions.PageError` via the same strict
        lookup as :meth:`tag_of` instead of silently falling back to
        ``"untagged"``.
        """
        try:
            data = self.backend.read(page_id)
        except KeyError:
            raise PageError(f"read of unknown page {page_id}") from None
        # Strict attribution up front: if the read cannot be attributed
        # it fails before the fault draw and before it is counted.
        tag = self.tag_of(page_id)
        self.faults.before_read(page_id, self.stats)
        data = self.faults.maybe_rot(data, self.stats)
        stored_checksum = self._stored_checksum(page_id)
        if page_checksum(data) != stored_checksum:
            self.stats.record_checksum_failure()
            METRICS.inc("disk.checksum_failure")
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.event("disk.checksum_failure", page_id=page_id)
            raise ChecksumError(
                f"page {page_id}: CRC32 mismatch "
                f"(stored 0x{stored_checksum:08x}, "
                f"read 0x{page_checksum(data):08x})"
            )
        self.stats.record_read()
        self.reads_by_tag[tag] = self.reads_by_tag.get(tag, 0) + 1
        METRICS.inc("disk.read")
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("disk.read", page_id=page_id, tag=tag)
        return Page(page_id, bytearray(data), size=self.page_size)

    def write_page(self, page: Page) -> None:
        """Physically write ``page``; counts one write.

        The checksum of the *intended* bytes is always recorded; an
        injected torn write may persist only a prefix of them, leaving a
        page whose every later read fails verification.
        """
        try:
            old = self.backend.read(page.page_id)
        except KeyError:
            raise PageError(f"write of unknown page {page.page_id}") from None
        if len(page.data) != self.page_size:
            raise PageError(
                f"page {page.page_id}: buffer is {len(page.data)} bytes, "
                f"expected {self.page_size}"
            )
        intended = bytes(page.data)
        stored = self.faults.maybe_tear(intended, old, self.stats)
        self.backend.write(page.page_id, stored)
        self._checksums[page.page_id] = page_checksum(intended)
        self.stats.record_write()
        METRICS.inc("disk.write")
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("disk.write", page_id=page.page_id)

    # -- attachment (persistence) ---------------------------------------------

    def install_image(
        self,
        pages: dict[int, bytes],
        checksums: dict[int, int],
        tags: dict[int, str],
        next_page_id: int,
    ) -> None:
        """Install a salvaged page image (the persistence attach paths).

        Installs pages with their *stored* checksums — a page torn in the
        image stays detectably torn — and a complete tag table, so the
        strict attribution of :meth:`read_page` holds on a reloaded disk.
        Installation is setup, not I/O: nothing is counted.
        """
        for page_id in sorted(pages):
            self.backend.allocate(page_id, pages[page_id])
        self._checksums = {int(pid): int(crc) for pid, crc in checksums.items()}
        self._tags = {int(pid): str(tag) for pid, tag in tags.items()}
        self._next_page_id = int(next_page_id)

    # -- introspection --------------------------------------------------------

    def page_ids(self) -> list[int]:
        """Ids of every currently allocated page, ascending."""
        return self.backend.page_ids()

    def has_page(self, page_id: int) -> bool:
        """Whether ``page_id`` is currently allocated (no I/O counted)."""
        return page_id in self.backend

    @property
    def num_pages(self) -> int:
        """Number of currently allocated pages."""
        return len(self.backend)

    @property
    def size_in_bytes(self) -> int:
        """Total size of all allocated pages."""
        return self.num_pages * self.page_size

    def __repr__(self) -> str:
        return (
            f"DiskManager(pages={self.num_pages}, "
            f"page_size={self.page_size}, backend={self.backend.name!r}, "
            f"stats={self.stats!r})"
        )
