"""Vectorized scoring kernels.

The search strategies decode posting pages into NumPy arrays, but the
seed implementation immediately fell back to per-posting Python loops
(``tids.tolist()``).  This module provides block-wise replacements that
are *bit-identical* to that per-posting bookkeeping:

* :func:`exact_scores` — grouped score accumulation.  Scores everywhere
  in the library are correctly rounded sums (``math.fsum``) of the
  per-list products, so the kernel groups products by tid and applies
  ``fsum`` per group (with a direct-assignment fast path for tids that
  occur in exactly one list).  A naive ``np.add.at`` would accumulate
  with sequential rounding and break bit-identity.
* :func:`block_scores` — the join-block generalization of
  :func:`exact_scores`: one grouped ``fsum`` over composite
  ``(outer row, tid)`` keys, scoring a whole block of outer tuples
  against the shared posting scan in a single call.
* :class:`SeenFilter` — sorted-array membership replacing the
  ``if tid in seen`` hot loop, preserving first-encounter order (the
  order determines random-access order and therefore counted page
  reads).
* :func:`masked_lacks` — per-candidate NRA "lack" bounds via a
  per-unique-mask ``fsum`` lookup table, exactly matching a
  per-candidate ``fsum``.
* :class:`CandidatePool` — insertion-ordered NRA candidate store with
  vectorized run updates (multi-word list masks, tombstones).
* :func:`kth_largest` / :func:`top_k_matches` — selection without
  arithmetic (``np.partition``), so thresholds and tie-breaks are the
  exact values a ``sorted(...)`` list would produce.

These are the only implementation; the seed's per-posting loops are
kept as the reference in ``tests/invindex/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np


def kernel_mode() -> str:
    """The kernel implementation in use: always ``"vectorized"``.

    Reads no environment.  It survives only because
    ``benchmarks/e2e/server.py`` imports it and the e2e smoke check
    requires a ``kernel`` protocol key; drop it together with that key.
    """
    return "vectorized"


# ---------------------------------------------------------------------------
# Exact grouped accumulation
# ---------------------------------------------------------------------------

def exact_scores(
    tid_runs: list[np.ndarray], weighted_runs: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Group per-list products by tid and sum each group with ``fsum``.

    Returns ``(unique_tids_ascending, scores)``.  Bit-identical to a
    per-tid ``dict`` accumulation because ``math.fsum`` is correctly
    rounded (order-independent) and a one-element ``fsum`` returns its
    argument unchanged — so tids contributed by a single list (the
    common case) take a direct-assignment fast path.
    """
    if not tid_runs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    tids = np.concatenate(tid_runs)
    products = np.concatenate(weighted_runs)
    order = np.argsort(tids, kind="stable")
    tids = tids[order]
    products = products[order]
    unique, starts, counts = np.unique(
        tids, return_index=True, return_counts=True
    )
    scores = np.empty(len(unique), dtype=np.float64)
    single = counts == 1
    scores[single] = products[starts[single]]
    for i in np.nonzero(~single)[0].tolist():
        start = starts[i]
        scores[i] = math.fsum(products[start : start + counts[i]].tolist())
    return unique, scores


def block_scores(
    row_runs: list[int],
    tid_runs: list[np.ndarray],
    weighted_runs: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grouped ``fsum`` over ``(outer row, tid)`` pairs for a join block.

    The block rank-join engine scans each touched posting list once and
    scores it against every outer tuple in the block that queries the
    list's item.  Each run is one (list, outer row) combination:
    ``row_runs[i]`` is the outer row the run belongs to, ``tid_runs[i]``
    the posting tids, and ``weighted_runs[i]`` the products
    ``q_prob * prob`` the row contributes through this list.

    Returns ``(rows, tids, scores)`` sorted by ``(row, tid)`` ascending:
    :func:`exact_scores` over packed ``(row, tid)`` keys, unpacked.  So
    it is bit-identical to per-probe verification for the same reason:
    every ``(row, tid)`` group holds exactly the product multiset
    ``{q.p_i * u.p_i}`` over the common items.
    """
    # Composite (row, tid) key: tids are non-negative and bounded by the
    # relation size, so the packed key cannot collide or overflow int64.
    span = 1 + max((int(tids.max()) for tids in tid_runs if len(tids)), default=0)
    keys, scores = exact_scores(
        [
            row * span + tids.astype(np.int64, copy=False)
            for row, tids in zip(row_runs, tid_runs)
        ],
        weighted_runs,
    )
    return keys // span, keys % span, scores


# ---------------------------------------------------------------------------
# First-encounter filtering
# ---------------------------------------------------------------------------

class SeenFilter:
    """Vectorized replacement for the ``if tid in seen`` dedup loop.

    :meth:`admit` returns the run's never-seen tids *in run order*
    (first occurrence wins within a run), and marks them seen.  The
    run order matters: it is the order candidates are random-accessed,
    which determines buffer-pool eviction patterns and therefore the
    counted page reads.
    """

    __slots__ = ("_sorted",)

    def __init__(self) -> None:
        self._sorted = np.empty(0, dtype=np.int64)

    def admit(self, tids: np.ndarray) -> np.ndarray:
        if len(tids) == 0:
            return tids
        seen = self._sorted
        if len(seen):
            positions = np.minimum(np.searchsorted(seen, tids), len(seen) - 1)
            fresh = tids[seen[positions] != tids]
        else:
            fresh = tids
        if len(fresh) == 0:
            return fresh
        # One sort serves both the duplicate check (a neighbour compare)
        # and the merge; only a run that really repeats a tid pays for
        # ``np.unique``.
        ordered = np.sort(fresh)
        if (ordered[1:] == ordered[:-1]).any():
            ordered, first = np.unique(fresh, return_index=True)
            fresh = fresh[np.sort(first)]
        merged = np.concatenate([seen, ordered])
        merged.sort(kind="stable")  # two sorted runs: one merge pass
        self._sorted = merged
        return fresh


# ---------------------------------------------------------------------------
# Ragged rows
# ---------------------------------------------------------------------------

def gather_rows(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the ragged rows ``[starts[i], starts[i] + lens[i])``.

    Returns ``(index, offsets)``: ``flat.take(index)`` lays the rows out
    back to back in the given order, row ``i`` beginning at
    ``offsets[i]``.  Temporaries are O(total row length).
    """
    ends = np.cumsum(lens)
    offsets = ends - lens
    total = int(ends[-1]) if len(ends) else 0
    index = np.arange(total) + np.repeat(starts - offsets, lens)
    return index, offsets


# ---------------------------------------------------------------------------
# NRA bookkeeping
# ---------------------------------------------------------------------------

#: One word of a :class:`CandidatePool` list mask.  Little-endian on
#: every host, so a mask row's bytes read as one little-endian integer
#: are the bitmask of the lists the candidate was seen in.
MASK_WORD = np.dtype("<u8")


def masked_lacks(masks: np.ndarray, terms: list[float]) -> np.ndarray:
    """Per-candidate "lack" bounds: ``fsum(terms[j] for j not in mask)``.

    ``masks`` holds one :class:`CandidatePool` mask row per candidate.
    Candidates sharing a mask row share a lack value, so the ``fsum`` is
    evaluated once per *distinct* row and scattered back — exactly the
    per-candidate sum.
    """
    if len(masks) == 0:
        return np.empty(0, dtype=np.float64)
    # Number the distinct rows one word at a time: renumbering the pairs
    # (number so far, next word) keeps every sort one-dimensional and
    # every number below the row count.
    words = iter(masks.T)
    _, group = np.unique(next(words), return_inverse=True)
    for word in words:
        _, word = np.unique(word, return_inverse=True)
        _, group = np.unique(group * len(masks) + word, return_inverse=True)
    member = np.empty(int(group.max()) + 1, dtype=np.int64)
    member[group] = np.arange(len(masks))
    rows = masks[member].tobytes()
    width = masks.shape[1] * MASK_WORD.itemsize
    num_lists = len(terms)
    table = np.empty(len(member), dtype=np.float64)
    for u in range(len(member)):
        mask = int.from_bytes(rows[u * width : (u + 1) * width], "little")
        table[u] = math.fsum(
            terms[j] for j in range(num_lists) if not mask >> j & 1
        )
    return table[group]


class CandidatePool:
    """Insertion-ordered NRA candidate store with vectorized run updates.

    Candidates keep their admission order (the verification-pass order),
    a discarded candidate is a tombstone that never revives, and within
    one run the first occurrence of a tid wins.  Requires tids unique
    within each run for the fancy-indexed ``+=`` (guaranteed by the
    in-order dedup applied here).

    ``masks`` records which lists each candidate was seen in: one row
    of ``ceil(num_lists / 64)`` :data:`MASK_WORD` words per candidate,
    list ``j`` being bit ``j % 64`` of word ``j // 64``, so a query may
    span any number of lists.
    """

    __slots__ = (
        "tids",
        "partial",
        "masks",
        "alive",
        "confirmed",
        "_sorted_tids",
        "_sorted_slots",
    )

    def __init__(self, num_lists: int) -> None:
        self.tids = np.empty(0, dtype=np.int64)
        self.partial = np.empty(0, dtype=np.float64)
        self.masks = np.empty((0, -(-num_lists // 64)), dtype=MASK_WORD)
        self.alive = np.empty(0, dtype=np.bool_)
        self.confirmed = np.empty(0, dtype=np.bool_)
        self._sorted_tids = np.empty(0, dtype=np.int64)
        self._sorted_slots = np.empty(0, dtype=np.int64)

    @property
    def size(self) -> int:
        """Number of live candidates (tombstones excluded)."""
        return int(self.alive.sum())

    def update_run(
        self,
        run_tids: np.ndarray,
        run_probs: np.ndarray,
        j: int,
        q_prob: float,
        admit: bool,
    ) -> None:
        """Fold one posting run from list ``j`` into the pool.

        ``admit`` is NRA's ``discovering`` flag: when false, never-seen
        tids are ignored (they can no longer qualify).
        """
        if len(run_tids) == 0:
            return
        unique, first = np.unique(run_tids, return_index=True)
        if len(unique) != len(run_tids):
            keep = np.sort(first)
            run_tids = run_tids[keep]
            run_probs = run_probs[keep]
        products = q_prob * run_probs
        word, bit = divmod(j, 64)
        bit = MASK_WORD.type(1) << MASK_WORD.type(bit)
        if len(self._sorted_tids):
            positions = np.minimum(
                np.searchsorted(self._sorted_tids, run_tids),
                len(self._sorted_tids) - 1,
            )
            found = self._sorted_tids[positions] == run_tids
            slots = self._sorted_slots[positions[found]]
            update = self.alive[slots] & ((self.masks[slots, word] & bit) == 0)
            hit = slots[update]
            self.partial[hit] += products[found][update]
            self.masks[hit, word] |= bit
        else:
            found = np.zeros(len(run_tids), dtype=np.bool_)
        if not admit:
            return
        fresh = run_tids[~found]
        if len(fresh) == 0:
            return
        base = len(self.tids)
        self.tids = np.concatenate([self.tids, fresh])
        self.partial = np.concatenate([self.partial, products[~found]])
        fresh_masks = np.zeros((len(fresh), self.masks.shape[1]), dtype=MASK_WORD)
        fresh_masks[:, word] = bit
        self.masks = np.concatenate([self.masks, fresh_masks])
        self.alive = np.concatenate(
            [self.alive, np.ones(len(fresh), dtype=np.bool_)]
        )
        self.confirmed = np.concatenate(
            [self.confirmed, np.zeros(len(fresh), dtype=np.bool_)]
        )
        new_slots = np.arange(base, base + len(fresh), dtype=np.int64)
        merged_tids = np.concatenate([self._sorted_tids, fresh])
        merged_slots = np.concatenate([self._sorted_slots, new_slots])
        order = np.argsort(merged_tids, kind="stable")
        self._sorted_tids = merged_tids[order]
        self._sorted_slots = merged_slots[order]

    def live_tids(self) -> list[int]:
        """Live candidate tids in admission order (the verification order)."""
        return self.tids[self.alive].tolist()


# ---------------------------------------------------------------------------
# Exact selection
# ---------------------------------------------------------------------------

def kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest value — ``sorted(values, reverse=True)[k-1]``."""
    position = len(values) - k
    return float(np.partition(values, position)[position])


def top_k_matches(
    tids: np.ndarray, scores: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the top ``k`` by ``(score desc, tid asc)``, exact under ties.

    ``np.partition`` preselects the candidates that can reach the k-th
    score (selection only, no arithmetic), then a lexsort applies the
    library's canonical ``Match`` ordering.
    """
    n = len(scores)
    if n == 0 or k < 1:
        return np.empty(0, dtype=np.int64)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        candidates = np.nonzero(scores >= kth)[0]
    else:
        candidates = np.arange(n)
    order = np.lexsort((tids[candidates], -scores[candidates]))[:k]
    return candidates[order]
