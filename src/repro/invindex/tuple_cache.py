"""The columnar tuple-decode cache behind random-access verification.

Candidate verification decodes the same stored tuples over and over, so
the decoded sparse arrays are memoized — per batch by
:meth:`~repro.invindex.index.ProbabilisticInvertedIndex.shared_scan`,
across requests by :class:`~repro.exec.serving.ServingExecutor`.  The
memo is one CSR block (sorted tids -> row extents -> flat ``int64``
items / ``float64`` probs) rather than a dict of array pairs, so a whole
posting run of candidates is looked up with one ``searchsorted`` and
handed to the block scorer without touching a tuple in Python
(:meth:`~repro.invindex.index.ProbabilisticInvertedIndex.fetch_uda_block`).
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.exceptions import QueryError
from repro.obs.metrics import METRICS

#: Default entry cap (the serving executor's cross-request cache).
DEFAULT_TUPLE_CACHE_ENTRIES = 1 << 18


def concat_rows(
    rows: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-tuple ``(items, probs)`` pairs into one ragged block.

    Returns ``(items, probs, starts, lens)`` with the rows back to back
    in the given order.
    """
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0), empty, empty.copy()
    lens = np.fromiter((len(items) for items, _ in rows), np.int64, len(rows))
    items = np.concatenate([items for items, _ in rows])
    probs = np.concatenate([probs for _, probs in rows])
    return items, probs, np.cumsum(lens) - lens, lens


class GenerationalTupleCache:
    """A capacity-bounded columnar decode cache with two generations.

    Layout: ``_tids`` is sorted; row ``i`` is
    ``_items[_starts[i] : _starts[i] + _lens[i]]`` (and the same extent
    of ``_probs``).  The flat buffers are append-only up to ``_used`` —
    an eviction or compaction builds new buffers instead of moving rows
    — so extents handed out by :meth:`rows` stay valid for as long as
    the caller holds the arrays they came with.

    Eviction is generation-segmented, not a wholesale clear: an entry is
    *young* once inserted or hit.  When a block would push the young
    generation past half the capacity, an epoch ends — entries that are
    not young (untouched for a whole generation) are dropped and the
    young ones become the old generation.  Hot tuples therefore survive
    every epoch boundary while total residency stays under ``capacity``.

    ``get`` / ``__setitem__`` are the per-tuple surface
    :meth:`~repro.invindex.index.ProbabilisticInvertedIndex.fetch_uda_arrays`
    uses, :meth:`rows` / :meth:`extend` the block surface.  Hits and
    misses are counted once per call with the block's totals, on the
    instance (:attr:`hits`, :attr:`misses`) and in ``METRICS``.
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "_tids",
        "_starts",
        "_lens",
        "_young",
        "_items",
        "_probs",
        "_used",
    )

    def __init__(self, capacity: int = DEFAULT_TUPLE_CACHE_ENTRIES) -> None:
        if capacity < 2:
            raise QueryError(f"cache capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._reset()

    def _reset(self) -> None:
        self._tids = np.empty(0, dtype=np.int64)
        self._starts = np.empty(0, dtype=np.int64)
        self._lens = np.empty(0, dtype=np.int64)
        self._young = np.empty(0, dtype=np.bool_)
        self._items = np.empty(0, dtype=np.int64)
        self._probs = np.empty(0, dtype=np.float64)
        self._used = 0

    # -- block surface -------------------------------------------------------

    def rows(
        self, tids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Look up a block of tids: ``(items, probs, starts, lens)``.

        ``items`` / ``probs`` are the cache's flat buffers (not copies);
        row ``i`` of the block is the extent ``starts[i]``, ``lens[i]``
        of them, and ``lens[i] == -1`` marks a tid that is not cached.
        Hits are touched (made young).
        """
        slots = self._slots(tids)
        found = np.flatnonzero(slots >= 0)
        self._count(len(found), len(tids) - len(found))
        if len(found) == len(tids):
            block = self._items, self._probs, self._starts[slots], self._lens[slots]
        else:
            starts = np.zeros(len(tids), dtype=np.int64)
            lens = np.full(len(tids), -1, dtype=np.int64)
            starts[found] = self._starts[slots[found]]
            lens[found] = self._lens[slots[found]]
            block = self._items, self._probs, starts, lens
            slots = slots[found]
        self._touch(slots)
        return block

    def extend(
        self, tids: np.ndarray, items: np.ndarray, probs: np.ndarray, lens: np.ndarray
    ) -> None:
        """Insert a batch of decoded tuples (rows back to back in ``items``).

        ``tids`` must not be cached already.  A batch larger than one
        generation keeps its most recent rows only.
        """
        half = self.capacity // 2
        starts = np.cumsum(lens) - lens
        if len(tids) > half:
            cut = starts[-half]
            tids, lens, starts = tids[-half:], lens[-half:], starts[-half:] - cut
            items, probs = items[cut:], probs[cut:]
        # Sorted for the merge; a tid repeated within the batch keeps one row.
        tids, first = np.unique(tids, return_index=True)
        if np.count_nonzero(self._young) + len(tids) > half:
            self._end_epoch(self._young)
        base = self._append(items, probs)
        at = np.searchsorted(self._tids, tids)
        self._tids = np.insert(self._tids, at, tids)
        self._starts = np.insert(self._starts, at, base + starts[first])
        self._lens = np.insert(self._lens, at, lens[first])
        self._young = np.insert(self._young, at, True)

    # -- per-tuple surface ---------------------------------------------------

    def get(self, key, default=None):
        slot = self._slot(key)
        if slot < 0:
            self._count(0, 1)
            return default
        self._count(1, 0)
        start = int(self._starts[slot])
        stop = start + int(self._lens[slot])
        value = self._items[start:stop], self._probs[start:stop]
        if not self._young[slot]:
            self._touch(np.array([slot]))
        return value

    def __setitem__(self, key, value) -> None:
        self.discard(key)  # an overwrite replaces the row
        items, probs = value
        self.extend(
            np.array([key], dtype=np.int64),
            np.asarray(items, dtype=np.int64),
            np.asarray(probs, dtype=np.float64),
            np.array([len(items)], dtype=np.int64),
        )

    def __contains__(self, key) -> bool:
        return self._slot(key) >= 0

    def __len__(self) -> int:
        return len(self._tids)

    # -- invalidation --------------------------------------------------------

    def discard(self, key) -> None:
        """Forget one tid (a no-op when it is not cached)."""
        slot = self._slot(key)
        if slot < 0:
            return
        METRICS.inc("tuple_cache.discard")
        # The row's pairs linger in the flat buffers until a compaction.
        self._tids = np.delete(self._tids, slot)
        self._starts = np.delete(self._starts, slot)
        self._lens = np.delete(self._lens, slot)
        self._young = np.delete(self._young, slot)

    def clear(self) -> None:
        METRICS.inc("tuple_cache.clear")
        self._reset()

    # -- internals -----------------------------------------------------------

    def _count(self, hits: int, misses: int) -> None:
        if hits:
            self.hits += hits
            METRICS.inc("tuple_cache.hit", hits)
        if misses:
            self.misses += misses
            METRICS.inc("tuple_cache.miss", misses)

    def _slots(self, tids: np.ndarray) -> np.ndarray:
        """Row of each tid, ``-1`` where absent (tids need not be dense)."""
        cached = self._tids
        if len(cached) == 0:
            return np.full(len(tids), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(cached, tids), len(cached) - 1)
        return np.where(cached[at] == tids, at, -1)

    def _slot(self, key) -> int:
        at = int(np.searchsorted(self._tids, key))
        if at < len(self._tids) and self._tids[at] == key:
            return at
        return -1

    def _touch(self, slots: np.ndarray) -> None:
        """Make the rows at ``slots`` young, ending the epoch if they overflow it."""
        fresh = slots[~self._young[slots]]
        if len(fresh) == 0:
            return
        if np.count_nonzero(self._young) + len(fresh) > self.capacity // 2:
            keep = self._young.copy()
            keep[fresh] = True
            fresh = np.cumsum(keep)[fresh] - 1  # their rows after the drop
            self._end_epoch(keep)
        self._young[fresh] = True

    def _end_epoch(self, keep: np.ndarray) -> None:
        """Drop every row outside ``keep``; the survivors become the old generation."""
        self._compact(keep)
        self._young = np.zeros(len(self._tids), dtype=np.bool_)

    def _compact(self, keep: np.ndarray) -> None:
        """Rebuild the block from the rows in ``keep`` (fresh flat buffers)."""
        lens = self._lens[keep]
        index, starts = kernels.gather_rows(self._starts[keep], lens)
        self._tids = self._tids[keep]
        self._young = self._young[keep]
        self._starts, self._lens = starts, lens
        self._items = self._items.take(index)
        self._probs = self._probs.take(index)
        self._used = len(index)

    def _append(self, items: np.ndarray, probs: np.ndarray) -> int:
        """Copy pairs behind the used part of the buffers; returns their base."""
        if self._used + len(items) > len(self._items):
            if 2 * int(self._lens.sum()) < self._used:
                # Mostly pairs of discarded rows: reclaim before growing.
                self._compact(np.ones(len(self._tids), dtype=np.bool_))
            room = max(2 * len(self._items), self._used + len(items))
            self._items = _grown(self._items, self._used, room)
            self._probs = _grown(self._probs, self._used, room)
        base = self._used
        self._used = base + len(items)
        self._items[base : self._used] = items
        self._probs[base : self._used] = probs
        return base


def _grown(buffer: np.ndarray, used: int, room: int) -> np.ndarray:
    """A buffer of ``room`` cells holding the first ``used`` of ``buffer``."""
    grown = np.empty(room, dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown
