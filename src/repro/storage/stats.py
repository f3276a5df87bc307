"""I/O accounting for the simulated storage substrate.

The paper's evaluation metric is the *number of disk I/O operations per
query* (Section 4).  :class:`IOStatistics` is a plain counter bundle that the
:class:`~repro.storage.disk.DiskManager` increments on every physical page
access; :class:`IOSnapshot` captures a point-in-time copy, and
:class:`MeasureScope` is the one accounting window built on the pair —
*the* definition of "the reads of a measured query" for every harness,
transport and serving path.

Beyond the paper's reads/writes, the bundle carries fault-tolerance
telemetry: ``checksum_failures`` (reads that failed CRC verification) and
``faults_injected`` (operations perturbed by
:mod:`repro.storage.faults`).  Failed read *attempts* are deliberately not
counted as reads — the paper's metric counts successful page transfers —
so the simulated I/O numbers are identical with fault injection disabled
or set to zero rates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable point-in-time copy of the I/O counters."""

    reads: int
    writes: int
    allocations: int
    checksum_failures: int = 0
    faults_injected: int = 0

    @property
    def total(self) -> int:
        """Total physical I/O operations (reads plus writes)."""
        return self.reads + self.writes


class IOStatistics:
    """Mutable read/write/allocation counters for one simulated disk."""

    __slots__ = (
        "reads",
        "writes",
        "allocations",
        "checksum_failures",
        "faults_injected",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.checksum_failures = 0
        self.faults_injected = 0

    def record_read(self, count: int = 1) -> None:
        """Count ``count`` physical page reads."""
        self.reads += count

    def record_write(self, count: int = 1) -> None:
        """Count ``count`` physical page writes."""
        self.writes += count

    def record_allocation(self, count: int = 1) -> None:
        """Count ``count`` page allocations."""
        self.allocations += count

    def record_checksum_failure(self, count: int = 1) -> None:
        """Count ``count`` reads whose CRC verification failed."""
        self.checksum_failures += count

    def record_fault(self, count: int = 1) -> None:
        """Count ``count`` injected faults (read errors, torn writes, rot)."""
        self.faults_injected += count

    def reset(self) -> None:
        """Zero every counter."""
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.checksum_failures = 0
        self.faults_injected = 0

    def snapshot(self) -> IOSnapshot:
        """Return an immutable copy of the current counters."""
        return IOSnapshot(
            self.reads,
            self.writes,
            self.allocations,
            self.checksum_failures,
            self.faults_injected,
        )

    def delta_since(self, snapshot: IOSnapshot) -> IOSnapshot:
        """Return counters accumulated since ``snapshot`` was taken."""
        return IOSnapshot(
            reads=self.reads - snapshot.reads,
            writes=self.writes - snapshot.writes,
            allocations=self.allocations - snapshot.allocations,
            checksum_failures=self.checksum_failures - snapshot.checksum_failures,
            faults_injected=self.faults_injected - snapshot.faults_injected,
        )

    @property
    def total(self) -> int:
        """Total physical I/O operations (reads plus writes)."""
        return self.reads + self.writes

    def __repr__(self) -> str:
        return (
            f"IOStatistics(reads={self.reads}, writes={self.writes}, "
            f"allocations={self.allocations})"
        )


class MeasureScope:
    """The accounting window around a measured execution.

    ``with MeasureScope(disk) as scope: ...`` snapshots the disk's
    counters on entry and, on exit, exposes what the block cost:
    :attr:`stats` (the :class:`IOSnapshot` delta), :attr:`reads` (its
    ``reads`` — the paper's metric) and :attr:`reads_by_tag` (nonzero
    per-component deltas).  The caller opts in to the two wall-clock
    telemetry sources it consumes: ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) adds the
    :attr:`metrics` delta, ``pool`` adds that pool's
    :attr:`pool_hits` / :attr:`pool_misses`.

    The scope only counts; *what* it counts is the caller's protocol.
    The paper's protocol installs a fresh buffer pool first and opens
    the window after, so the old pool's flush is setup, not query cost.
    """

    def __init__(self, disk, *, metrics=None, pool=None) -> None:
        self._disk = disk
        self._registry = metrics
        self._pool = pool

    def __enter__(self) -> "MeasureScope":
        if self._registry is not None:
            self._metrics_before = self._registry.snapshot()
        self._before = self._disk.stats.snapshot()
        self._tags_before = self._disk.snapshot_tags()
        if self._pool is not None:
            self._hits_before = self._pool.hits
            self._misses_before = self._pool.misses
        return self

    def __exit__(self, *exc_info) -> None:
        self.stats = self._disk.stats.delta_since(self._before)
        self.reads = self.stats.reads
        if self._registry is not None:
            self.metrics = self._registry.delta_since(self._metrics_before)
        before = self._tags_before
        self.reads_by_tag = {
            tag: count - before.get(tag, 0)
            for tag, count in self._disk.snapshot_tags().items()
            if count != before.get(tag, 0)
        }
        if self._pool is not None:
            self.pool_hits = self._pool.hits - self._hits_before
            self.pool_misses = self._pool.misses - self._misses_before
