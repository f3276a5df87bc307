"""Paged storage substrate: disk simulation, buffering, and record codecs.

This package provides the storage layer the paper's evaluation implicitly
assumes: 8 KB pages, a disk whose physical reads/writes are counted, a
100-frame clock-replacement buffer pool per query, and the byte layouts of
UDA records and posting entries.  Every page carries an out-of-band CRC32
checksum, and :mod:`repro.storage.faults` can inject seeded device faults
to exercise the detection and recovery machinery (see
``docs/fault-model.md``).
"""

from repro.storage.backends import (
    BACKEND_ENV,
    BACKEND_NAMES,
    BACKEND_PATH_ENV,
    BackendSpec,
    MmapFileBackend,
    SimulatedBackend,
    StorageBackend,
    active_backend_spec,
    backend_scope,
    create_backend,
    set_active_backend,
    spec_from_env,
)
from repro.storage.buffer import (
    DECODED_CACHE_ENV,
    DEFAULT_POOL_SIZE,
    MAX_READ_RETRIES,
    BufferPool,
)
from repro.storage.cache import DEFAULT_ENTRIES_PER_FRAME, DecodedCache
from repro.storage.disk import DiskManager, page_checksum
from repro.storage.faults import (
    FaultInjector,
    FaultPlan,
    FaultyDisk,
    active_plan,
    fault_plan,
    set_active_plan,
)
from repro.storage.heapfile import HeapFile, Rid
from repro.storage.page import DEFAULT_PAGE_SIZE, INVALID_PAGE_ID, Page
from repro.storage.persistence import ScanReport, scan_disk, scan_disk_from_path
from repro.storage.stats import IOSnapshot, IOStatistics, MeasureScope

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BACKEND_PATH_ENV",
    "BackendSpec",
    "MmapFileBackend",
    "SimulatedBackend",
    "StorageBackend",
    "active_backend_spec",
    "backend_scope",
    "create_backend",
    "set_active_backend",
    "spec_from_env",
    "DECODED_CACHE_ENV",
    "DEFAULT_ENTRIES_PER_FRAME",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_POOL_SIZE",
    "INVALID_PAGE_ID",
    "MAX_READ_RETRIES",
    "BufferPool",
    "DecodedCache",
    "DiskManager",
    "FaultInjector",
    "FaultPlan",
    "FaultyDisk",
    "HeapFile",
    "IOSnapshot",
    "IOStatistics",
    "MeasureScope",
    "Page",
    "Rid",
    "ScanReport",
    "active_plan",
    "fault_plan",
    "page_checksum",
    "scan_disk",
    "scan_disk_from_path",
    "set_active_plan",
]
