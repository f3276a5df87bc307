"""The probabilistic inverted index (paper Section 3.1).

Structure: for every domain item ``d`` that occurs in the dataset, a
posting list of ``(tid, p)`` pairs sorted by descending probability
(each list a paged B+-tree), plus a *tuple list* — a heap file mapping
tid to the full UDA — for the random accesses the search strategies make
to verify candidates.

The index supports:

* ``build`` — bulk construction from an :class:`UncertainRelation`;
* ``insert`` / ``delete`` — the paper's dynamic maintenance: "we dissect
  the tuple into the list of pairs; for each pair (d, p) we access the
  list of d and insert the pair (tid, p) in the B-tree of this list";
* ``execute`` — PEQ, PETQ and PEQ-top-k under any of the strategies of
  :mod:`repro.invindex.strategies` (default: ``highest_prob_first``).

All page access flows through :attr:`pool`; assign a fresh
:class:`~repro.storage.buffer.BufferPool` to measure a query under the
paper's 100-block-per-query buffering regime.
"""

from __future__ import annotations

from contextlib import contextmanager

import sys

import numpy as np

from repro.core import kernels
from repro.core.config import read_env_int
from repro.core.exceptions import KeyNotFoundError, QueryError
from repro.core.queries import (
    EqualityTopKQuery,
    Query,
    check_pushed_bounds,
    threshold_form,
)
from repro.core.relation import UncertainRelation
from repro.core.results import QueryResult
from repro.core.uda import UncertainAttribute
from repro.invindex.postings import PostingList
from repro.invindex.segments import PostingSegment, SegmentedPostingList
from repro.invindex.tuple_cache import GenerationalTupleCache, concat_rows
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heapfile import HeapFile, Rid
from repro.storage.serialization import decode_heap_record, encode_heap_record

#: The search strategy :meth:`ProbabilisticInvertedIndex.execute` runs
#: when the caller names none.
DEFAULT_STRATEGY = "highest_prob_first"

#: Tuples the active segment absorbs before it is sealed and a fresh
#: one opens.  Small by design: segments are the write path's staging
#: area, not a second index generation.
DEFAULT_SEGMENT_TUPLES = 128

#: Environment variable overriding :data:`DEFAULT_SEGMENT_TUPLES`.
SEGMENT_TUPLES_ENV = "REPRO_SEGMENT_TUPLES"


def _segment_capacity_from_env() -> int:
    value = read_env_int(SEGMENT_TUPLES_ENV, minimum=1)
    return DEFAULT_SEGMENT_TUPLES if value is None else value


class ProbabilisticInvertedIndex:
    """Inverted index over one uncertain attribute.

    Parameters
    ----------
    domain_size:
        Size of the categorical domain.
    disk:
        Backing disk; created fresh when omitted.
    pool:
        Buffer pool used for construction; a default full-size pool is
        created when omitted.  Reassign :attr:`pool` before each measured
        query.

    Notes
    -----
    The item directory (item -> posting-tree root) and the tid -> rid map
    are kept in memory, modelling a cached catalog; neither contributes
    to the per-query I/O counts, mirroring the paper's accounting which
    charges only list pages and tuple random accesses.
    """

    def __init__(
        self,
        domain_size: int,
        disk: DiskManager | None = None,
        pool: BufferPool | None = None,
    ) -> None:
        if domain_size < 1:
            raise QueryError(f"domain_size must be >= 1, got {domain_size}")
        self.domain_size = domain_size
        self.disk = disk if disk is not None else DiskManager()
        self._pool = pool if pool is not None else BufferPool(self.disk, 4096)
        self._lists: dict[int, PostingList] = {}
        self._heap = HeapFile(self._pool, tag="tuples")
        self._rid_of_tid: dict[int, Rid] = {}
        self._tuple_memo: GenerationalTupleCache | None = None
        self.num_tuples = 0
        #: Monotonic mutation counter (insert/delete/build/compact).
        #: Long-lived caches keyed by tid (the serving executor's
        #: tuple-decode cache) compare this stamp to know when entries
        #: may be stale.
        self.mutations = 0
        #: Whether the last :meth:`load` had to rebuild derived structures.
        self.recovered = False
        #: LSM write path (docs/mutability.md): online inserts land in
        #: ``_segments`` (the last un-sealed one is active), deletes of
        #: segment-owned tids resolve through ``_segment_of_tid``, and
        #: ``_dead_tids`` remembers deleted tuples whose heap records
        #: linger (the heap is append-only) so recovery and compaction
        #: can drop them.
        self._segments: list[PostingSegment] = []
        self._segment_of_tid: dict[int, int] = {}
        self._dead_tids: set[int] = set()
        self._segment_capacity = _segment_capacity_from_env()
        self._wal = None
        #: LSN of the last write-ahead-log record applied to this index.
        self.wal_lsn = 0
        #: Optional :class:`~repro.sketch.SketchIndex` enabling sketch
        #: pre-filtered similarity execution (docs/sketch-prefilter.md).
        #: Built with :meth:`build_sketch`; maintained by insert/delete,
        #: rebuilt by :meth:`compact`, persisted by :meth:`save`.
        self.sketch = None

    # -- buffering ------------------------------------------------------------

    @property
    def pool(self) -> BufferPool:
        """The buffer pool all page access goes through."""
        return self._pool

    @pool.setter
    def pool(self, pool: BufferPool) -> None:
        if pool is self._pool:
            # A serving executor may re-install the pool it already
            # attached; a no-op reassign must not flush (and so perturb)
            # the pool.
            return
        if pool.disk is not self.disk:
            raise QueryError("buffer pool must be backed by the index's disk")
        self._pool.flush_all()  # don't strand dirty pages in the old pool
        self._pool = pool
        self._heap.pool = pool
        for posting_list in self._lists.values():
            posting_list.pool = pool
        for segment in self._segments:
            segment.pool = pool
        if self.sketch is not None:
            self.sketch.pool = pool

    @contextmanager
    def shared_scan(self, memo: GenerationalTupleCache | None = None):
        """Memoize random-access tuple decodes for a batch of queries.

        While active, :meth:`fetch_uda_arrays` / :meth:`fetch_uda_block`
        keep each decoded tuple in
        memory, so a tuple verified by one query in a batch is served to
        every later query without re-fetching its heap page or re-decoding
        the record.  Per-query logical behavior (answer sets, scores, stop
        rules) is untouched — only repeated physical work is skipped,
        which is exactly the amortization :class:`repro.exec.BatchExecutor`
        models with its shared per-batch pool.  Never active at batch
        size 1, so per-query I/O counts stay the paper's.

        ``memo`` lets a caller own the memo and carry it across
        scopes — the serving executor passes its long-lived tuple cache
        here so decode warmth survives between requests while the index
        itself stays memo-free (and measurement-exact) whenever no scope
        is active.  The caller owning ``memo`` owns its invalidation
        (see :attr:`mutations`).  The default is a cache of the same
        type that never evicts and dies with the scope.
        """
        if self._tuple_memo is not None:  # nested batches don't occur,
            yield  # but re-entry must not clear the outer scope's memo
            return
        self._tuple_memo = (
            GenerationalTupleCache(sys.maxsize) if memo is None else memo
        )
        try:
            yield
        finally:
            self._tuple_memo = None

    # -- construction -----------------------------------------------------------

    def build(self, relation: UncertainRelation) -> None:
        """Bulk-build the index over every tuple of ``relation``."""
        if self.num_tuples:
            raise QueryError("index already built; create a fresh one")
        if len(relation.domain) != self.domain_size:
            raise QueryError(
                f"relation domain size {len(relation.domain)} != index "
                f"domain size {self.domain_size}"
            )
        for tid in relation.tids():
            uda = relation.uda_of(tid)
            record = encode_heap_record(tid, uda.items, uda.probs)
            self._rid_of_tid[tid] = self._heap.append(record)
        matrix = relation.to_sparse_matrix().tocsc()
        for item in range(self.domain_size):
            start, end = matrix.indptr[item], matrix.indptr[item + 1]
            if start == end:
                continue
            posting_list = PostingList(self._pool)
            posting_list.bulk_build(
                matrix.indices[start:end].astype(np.int64),
                matrix.data[start:end],
            )
            self._lists[item] = posting_list
        self.num_tuples = len(relation)
        self.mutations += 1
        self._pool.flush_all()

    def insert(self, tid: int, uda: UncertainAttribute) -> None:
        """Insert one tuple (paper Section 3.1, insert/delete paragraph).

        The pairs land in the active mutable segment, not the base
        trees; with a write-ahead log attached (:meth:`attach_wal`) the
        operation is made durable before it is applied.
        """
        if tid in self._rid_of_tid:
            raise QueryError(f"tid {tid} already present")
        lsn = (
            self._wal.append_insert(tid, uda.items, uda.probs)
            if self._wal is not None
            else None
        )
        self._apply_insert(tid, uda)
        if lsn is not None:
            self.wal_lsn = lsn

    def delete(self, tid: int) -> None:
        """Remove a tuple from every posting list it occurs in.

        The heap record stays behind (the tuple list is append-only);
        ``_dead_tids`` marks it dead until the next :meth:`compact`.
        """
        uda = self.fetch_uda(tid)  # validates presence
        lsn = (
            self._wal.append_delete(tid) if self._wal is not None else None
        )
        self._apply_delete(tid, uda)
        if lsn is not None:
            self.wal_lsn = lsn

    def _apply_insert(self, tid: int, uda: UncertainAttribute) -> None:
        """Apply an insert to the in-memory/paged state (no WAL write)."""
        record = encode_heap_record(tid, uda.items, uda.probs)
        self._rid_of_tid[tid] = self._heap.append(record)
        self._dead_tids.discard(tid)  # a reinsert supersedes the old record
        if self._segments and not self._segments[-1].sealed:
            ordinal = len(self._segments) - 1
        else:
            self._segments.append(PostingSegment(self._pool))
            ordinal = len(self._segments) - 1
        segment = self._segments[ordinal]
        segment.insert(tid, uda)
        self._segment_of_tid[tid] = ordinal
        if self.sketch is not None:
            # Sketch the f32-exact values the heap record stores — what
            # verification will score against (WAL replay funnels
            # through here too, so recovery re-sketches identically).
            self.sketch.insert(
                tid,
                np.asarray(uda.items, dtype=np.int64),
                np.asarray(uda.probs, dtype=np.float32).astype(np.float64),
            )
        self.num_tuples += 1
        self.mutations += 1
        if len(segment.tids) >= self._segment_capacity:
            segment.sealed = True
            METRICS.inc("segment.flush")
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.event(
                    "segment.flush", segment=ordinal, tuples=len(segment.tids)
                )

    def _apply_delete(self, tid: int, uda: UncertainAttribute) -> None:
        """Apply a delete to the in-memory/paged state (no WAL write)."""
        ordinal = self._segment_of_tid.pop(tid, None)
        if ordinal is None:
            for item, prob in uda.pairs():
                self._lists[item].delete(tid, prob)
        else:
            self._segments[ordinal].remove(tid, uda)
        del self._rid_of_tid[tid]
        self._dead_tids.add(tid)
        if self.sketch is not None:
            self.sketch.delete(tid)
        self.num_tuples -= 1
        self.mutations += 1

    # -- write-ahead log -------------------------------------------------------

    def attach_wal(self, wal, *, replay: bool = True) -> None:
        """Attach a :class:`~repro.wal.WriteAheadLog`; replay its tail.

        Records with ``lsn <= self.wal_lsn`` were already absorbed by
        the image this index was loaded from and are skipped; the rest
        are re-applied in order (crash recovery over the last durable
        image).  Subsequent :meth:`insert`/:meth:`delete` calls log to
        ``wal`` before applying.  A torn tail truncated when ``wal`` was
        opened marks this index :attr:`recovered` — the prefix is
        consistent, but the crash lost the record being written.
        """
        self._wal = wal
        if not replay:
            return
        applied = skipped = 0
        for record in wal.replay():
            if record.lsn <= self.wal_lsn:
                skipped += 1
                continue
            if record.items is not None:
                self._apply_insert(
                    record.tid, UncertainAttribute(record.items, record.probs)
                )
            else:
                self._apply_delete(record.tid, self.fetch_uda(record.tid))
            self.wal_lsn = record.lsn
            applied += 1
        if wal.torn:
            self.recovered = True
        METRICS.inc("wal.replay")
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(
                "wal.replay", applied=applied, skipped=skipped, torn=wal.torn
            )

    # -- compaction ------------------------------------------------------------

    def compact(self) -> None:
        """Fold segments and deletions back into bulk-loaded base trees.

        Rebuilds the tuple heap (live records only, ascending tid) and
        every posting list (one bulk-loaded tree per item) in exactly
        the layout :meth:`build` produces for the same final tuple set,
        then frees every old page wholesale — the disk held nothing but
        the old heap and posting pages, so no per-tree enumeration is
        needed.  Afterwards queries read the index byte-for-byte like a
        static build: the differential suite asserts identical answers
        *and* identical measurement-mode read counts.
        """
        if not self._segments and not self._dead_tids:
            return
        METRICS.inc("compaction")
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(
                "compaction.begin",
                segments=len(self._segments),
                deleted=len(self._dead_tids),
            )
        # Gather the merged view while the old structures are readable.
        merged: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        items = set(self._lists)
        for segment in self._segments:
            items.update(segment.lists)
        for item in sorted(items):
            posting_list = self.posting_list(item)
            tids, probs = posting_list.read_all()
            if len(tids):
                merged[item] = (tids, probs)
        live_records = []
        for tid in sorted(self._rid_of_tid):
            items_arr, probs_arr = self.fetch_uda_arrays(tid)
            live_records.append((tid, items_arr, probs_arr))
        old_pages = sorted(self.disk.page_ids())
        # Rebuild: heap first, then posting trees in ascending item
        # order — the exact allocation sequence of a static build.
        self._heap = HeapFile(self._pool, tag="tuples")
        self._rid_of_tid = {}
        for tid, items_arr, probs_arr in live_records:
            record = encode_heap_record(tid, items_arr, probs_arr)
            self._rid_of_tid[tid] = self._heap.append(record)
        self._lists = {}
        for item, (tids, probs) in merged.items():
            posting_list = PostingList(self._pool)
            posting_list.bulk_build(tids, probs)
            self._lists[item] = posting_list
        if self.sketch is not None:
            # Rebuild the sketch store deterministically over the live
            # set (its stale pages are in ``old_pages``, freed below).
            params = self.sketch.params
            self.sketch = None
            self.build_sketch(params, flush=False)
        # The old pages are garbage now: drop their frames unwritten and
        # return them to the allocator.
        for page_id in old_pages:
            self._pool.discard_page(page_id)
            self.disk.deallocate_page(page_id)
        self._segments = []
        self._segment_of_tid = {}
        self._dead_tids = set()
        self.mutations += 1
        self._pool.flush_all()
        if tracer is not None:
            tracer.event(
                "compaction.end",
                items=len(merged),
                pages_freed=len(old_pages),
            )

    # -- sketch pre-filtering --------------------------------------------------

    def live_tids(self) -> list[int]:
        """Every live tuple id, ascending — the similarity scan order."""
        return sorted(self._rid_of_tid)

    def build_sketch(self, params=None, *, flush: bool = True) -> None:
        """Build (or rebuild) the attached sketch store over the live set.

        Sketches every live tuple in ascending-tid order, so the page
        image is a deterministic function of the logical contents —
        build-then-mutate and mutate-then-compact converge on the same
        sketch pages.
        """
        from repro.sketch import SketchIndex

        sketch = SketchIndex(self._pool, params)
        for tid in self.live_tids():
            items, probs = self.fetch_uda_arrays(tid)
            sketch.insert(tid, items, probs)
        self.sketch = sketch
        if flush:
            self._pool.flush_all()

    # -- access paths -------------------------------------------------------------

    def posting_list(self, item: int) -> PostingList | SegmentedPostingList | None:
        """The posting list for ``item``, or None if the item never occurs.

        With live segments this is a :class:`SegmentedPostingList`
        merging the base tree and every segment tree for the item; with
        none (static builds, or after :meth:`compact`) it is the base
        tree itself, bit-identical to the pre-mutability access path.
        """
        base = self._lists.get(item)
        if not self._segments:
            return base
        parts = [base] if base is not None else []
        for segment in self._segments:
            part = segment.lists.get(item)
            if part is not None:
                parts.append(part)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return SegmentedPostingList(parts)

    def fetch_uda_arrays(self, tid: int) -> tuple[np.ndarray, np.ndarray]:
        """Random access: a tuple's stored sparse arrays, unvalidated.

        The stored layout guarantees item-sorted, float32-exact pairs,
        so strategies can score against these directly (one random
        access, no re-validation).
        """
        memo = self._tuple_memo
        if memo is None:
            return self._decode_tuple(tid)
        cached = memo.get(tid)
        if cached is None:
            cached = memo[tid] = self._decode_tuple(tid)
        return cached

    def _decode_tuple(self, tid: int) -> tuple[np.ndarray, np.ndarray]:
        """Read and decode one tuple-list record (the uncached access)."""
        try:
            rid = self._rid_of_tid[tid]
        except KeyError:
            raise KeyNotFoundError(f"tid {tid} not in index") from None
        # Zero-copy read; the .astype calls below copy out of the page
        # buffer before any other fetch can touch it.
        stored_tid, pairs, _ = decode_heap_record(self._heap.get_view(rid))
        if stored_tid != tid:
            raise KeyNotFoundError(
                f"tuple list corrupted: rid of tid {tid} holds {stored_tid}"
            )
        return pairs["item"].astype(np.int64), pairs["prob"].astype(np.float64)

    def fetch_uda_block(
        self, tids: np.ndarray, announce=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Random access for a run of distinct tids, as one ragged block.

        Returns ``(items, probs, starts, lens)``: tuple ``i`` is the
        extent ``starts[i]``, ``lens[i]`` of the flat arrays — the shape
        :meth:`~repro.core.uda.UncertainAttribute.equality_with_block`
        scores.  Tuples the active memo holds come straight out of its
        columnar store with no per-tuple work; the rest are decoded one
        by one *in run order* exactly as :meth:`fetch_uda_arrays` would
        (so the sequence of page accesses is that of the per-tid loop)
        and join the memo as one batch.

        ``announce``, if given, is called with every tid in run order,
        each call before that tid's page access — the hook a traced
        strategy emits its per-candidate records through.
        """
        memo = self._tuple_memo
        if memo is None:
            held = np.zeros(len(tids), dtype=np.bool_)
        else:
            items, probs, starts, lens = memo.rows(tids)
            held = lens >= 0
        if announce is None:
            decoded = [self._decode_tuple(tid) for tid in tids[~held].tolist()]
        else:
            decoded = []
            for tid, cached in zip(tids.tolist(), held.tolist()):
                announce(tid)
                if not cached:
                    decoded.append(self._decode_tuple(tid))
        if memo is None:
            return concat_rows(decoded)
        if not decoded:
            return items, probs, starts, lens
        fresh_items, fresh_probs, fresh_starts, fresh_lens = concat_rows(decoded)
        memo.extend(tids[~held], fresh_items, fresh_probs, fresh_lens)
        # Stitch: cached rows gathered out of the memo's buffers, then
        # the fresh rows behind them.
        index, starts[held] = kernels.gather_rows(starts[held], lens[held])
        starts[~held] = len(index) + fresh_starts
        lens[~held] = fresh_lens
        return (
            np.concatenate([items.take(index), fresh_items]),
            np.concatenate([probs.take(index), fresh_probs]),
            starts,
            lens,
        )

    def fetch_uda(self, tid: int) -> UncertainAttribute:
        """Random access: fetch a tuple's full UDA from the tuple list."""
        items, probs = self.fetch_uda_arrays(tid)
        return UncertainAttribute(items, probs)

    # -- queries ----------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        *,
        strategy: str | None = None,
        tau_floor: float = 0.0,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> QueryResult:
        """Answer an equality or similarity query descriptor.

        The keyword surface is the one
        :meth:`PDRTree.execute <repro.pdrtree.tree.PDRTree.execute>`
        shares, so callers forward what they were given.  ``strategy``
        is a name from :data:`repro.invindex.strategies.STRATEGIES`
        (``None``: :data:`DEFAULT_STRATEGY`).  ``tau_floor`` is
        the rank-join elevation of a top-k query's dynamic threshold
        (see :meth:`SearchStrategy.top_k <repro.invindex.strategies.SearchStrategy.top_k>`);
        it is only meaningful for :class:`EqualityTopKQuery` and must be
        ``0.0`` for every other descriptor.

        Similarity descriptors run as sketch-assisted scans over the
        tuple list (:mod:`repro.sketch.search`): ``sketch`` overrides
        the resolved ``REPRO_SKETCH`` mode, and ``div_ceiling`` lets a
        shard coordinator cap a :class:`SimilarityTopKQuery` at the
        global k-th divergence (the dual of ``tau_floor``).  Both are
        rejected on non-similarity descriptors
        (:func:`~repro.core.queries.check_pushed_bounds`).
        """
        from repro.invindex.strategies import get_strategy
        from repro.sketch import resolve_sketch
        from repro.sketch.search import similarity_execute

        similarity = check_pushed_bounds(query, tau_floor, sketch, div_ceiling)
        if similarity:
            mode = resolve_sketch(sketch)
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.event(
                    "query.begin",
                    structure="inv-index",
                    query=type(query).__name__,
                )
            result = similarity_execute(self, query, mode, div_ceiling)
            if tracer is not None:
                tracer.event(
                    "query.end",
                    structure="inv-index",
                    matches=len(result),
                )
            return result
        runner = get_strategy(strategy or DEFAULT_STRATEGY)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(
                "query.begin",
                structure="inv-index",
                query=type(query).__name__,
                strategy=runner.name,
            )
        result = self._execute_with(runner, query, tau_floor)
        if tracer is not None:
            tracer.event(
                "query.end",
                structure="inv-index",
                strategy=runner.name,
                matches=len(result),
            )
        return result

    def _execute_with(
        self, runner, query: Query, tau_floor: float = 0.0
    ) -> QueryResult:
        """Dispatch ``query`` to the right entry point of ``runner``."""
        if isinstance(query, EqualityTopKQuery):
            return runner.top_k(self, query.q, query.k, tau_floor=tau_floor)
        reduced = threshold_form(query, self.domain_size)
        if reduced is not None:
            return runner.threshold(self, *reduced)
        raise QueryError(
            "the inverted index answers equality queries; got "
            f"{type(query).__name__}"
        )

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Persist the index (pages plus catalog) to ``path``.

        The tid -> rid directory is rebuilt from the tuple list on load,
        so the catalog stays small.
        """
        from repro.storage.persistence import save_disk_to_path

        self._pool.flush_all()
        metadata = {
            "kind": "inverted",
            "domain_size": self.domain_size,
            "num_tuples": self.num_tuples,
            "heap": self._heap.state(),
            "lists": {
                str(item): posting_list.state()
                for item, posting_list in self._lists.items()
            },
            "wal_lsn": self.wal_lsn,
            "deleted_tids": sorted(self._dead_tids),
            "segments": [segment.state() for segment in self._segments],
        }
        if self.sketch is not None:
            metadata["sketch"] = self.sketch.state()
        save_disk_to_path(path, self.disk, metadata)

    @classmethod
    def load(cls, path, *, recover: bool = True) -> "ProbabilisticInvertedIndex":
        """Reopen an index persisted with :meth:`save`.

        The image is checksum-scanned on attach.  A damaged image (torn
        pages, truncation) is recovered transparently when ``recover``
        is true: the tuple list (heap) is the ground truth, so corrupt
        posting pages are dropped and every posting list is rebuilt from
        a heap scan.  Damage *to the heap itself* — or ``recover=False``
        with any damage — raises
        :class:`~repro.core.exceptions.RecoveryError`: a wrong answer is
        never silently served.  :attr:`recovered` records which path ran.
        """
        from repro.core.exceptions import RecoveryError
        from repro.storage.persistence import scan_disk_from_path

        disk, metadata, report = scan_disk_from_path(path)
        if metadata.get("kind") != "inverted":
            raise QueryError(
                f"{path} holds a {metadata.get('kind')!r} structure, "
                "not an inverted index"
            )
        if not report.clean and not recover:
            raise RecoveryError(
                f"{path} is damaged (corrupt pages "
                f"{report.corrupt_page_ids}, truncated={report.truncated}) "
                "and recovery is disabled"
            )
        index = cls.__new__(cls)
        index.domain_size = int(metadata["domain_size"])
        index.disk = disk
        index._pool = BufferPool(disk, 4096)
        index.recovered = not report.clean
        index._tuple_memo = None
        index.mutations = 0
        index._wal = None
        index.wal_lsn = int(metadata.get("wal_lsn", 0))
        index._dead_tids = {int(tid) for tid in metadata.get("deleted_tids", [])}
        index._segment_capacity = _segment_capacity_from_env()
        heap_state = metadata["heap"]
        if not report.clean:
            heap_pages = set(heap_state["page_ids"])
            damaged_heap = heap_pages & set(report.corrupt_page_ids)
            missing_heap = heap_pages - set(disk.page_ids())
            if damaged_heap or missing_heap:
                raise RecoveryError(
                    f"{path}: tuple list damaged beyond repair "
                    f"(corrupt heap pages {sorted(damaged_heap)}, "
                    f"missing heap pages {sorted(missing_heap)})"
                )
            # Posting pages are derived data: drop every non-heap page
            # (including the corrupt ones) and rebuild below.
            for page_id in sorted(set(disk.page_ids()) - heap_pages):
                disk.deallocate_page(page_id)
        index._heap = HeapFile.attach(index._pool, heap_state, tag="tuples")
        if report.clean:
            index._lists = {
                int(item): PostingList.attach(index._pool, state)
                for item, state in metadata["lists"].items()
            }
            index._segments = [
                PostingSegment.attach(index._pool, state)
                for state in metadata.get("segments", [])
            ]
            index._segment_of_tid = {
                tid: ordinal
                for ordinal, segment in enumerate(index._segments)
                for tid in segment.tids
            }
            index._rid_of_tid = {}
            # Scan order is append order, so for a reinserted tid the
            # later (live) record wins the directory slot.
            for rid, record in index._heap.scan():
                tid, _, _ = decode_heap_record(record)
                index._rid_of_tid[tid] = rid
            for tid in index._dead_tids:
                index._rid_of_tid.pop(tid, None)
        else:
            # Unclean: every posting page — base and segment alike — was
            # dropped above; rebuild one base tree per item from the
            # heap's latest record per tid, minus the dead set.
            index._lists = {}
            index._segments = []
            index._segment_of_tid = {}
            index._rid_of_tid = {}
            latest: dict[int, tuple[Rid, bytes]] = {}
            for rid, record in index._heap.scan():
                tid, _, _ = decode_heap_record(record)
                latest[tid] = (rid, bytes(record))
            for tid in index._dead_tids:
                latest.pop(tid, None)
            per_item: dict[int, list[tuple[int, float]]] = {}
            for tid, (rid, record) in latest.items():
                index._rid_of_tid[tid] = rid
                _, pairs, _ = decode_heap_record(record)
                for item, prob in zip(
                    pairs["item"].tolist(), pairs["prob"].tolist()
                ):
                    per_item.setdefault(int(item), []).append((tid, prob))
            for item in sorted(per_item):
                tids, probs = zip(*per_item[item])
                posting_list = PostingList(index._pool)
                posting_list.bulk_build(
                    np.asarray(tids, dtype=np.int64),
                    np.asarray(probs, dtype=np.float64),
                )
                index._lists[item] = posting_list
            index._pool.flush_all()
        index.num_tuples = int(metadata["num_tuples"])
        if index.num_tuples != len(index._rid_of_tid):
            raise RecoveryError(
                f"{path} is corrupt: catalog says {index.num_tuples} "
                f"tuples, tuple list holds {len(index._rid_of_tid)}"
            )
        index.sketch = None
        sketch_state = metadata.get("sketch")
        if sketch_state is not None:
            from repro.sketch import SketchIndex, SketchParams

            if report.clean:
                index.sketch = SketchIndex.attach(
                    index._pool, sketch_state, set(index._rid_of_tid)
                )
            else:
                # Sketch pages were derived data dropped with the rest;
                # rebuild deterministically from the recovered heap.
                index.build_sketch(
                    SketchParams(**sketch_state["params"])
                )
        return index

    def __repr__(self) -> str:
        return (
            f"ProbabilisticInvertedIndex(tuples={self.num_tuples}, "
            f"lists={len(self._lists)}, pages={self.disk.num_pages})"
        )
