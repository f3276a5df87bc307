"""The Probabilistic Distribution R-tree (PDR-tree), paper Section 3.2.

Each UDA is stored whole in a leaf page alongside distributionally
similar UDAs; internal nodes hold child page ids with MBR boundary
vectors (component-wise maxima, optionally compressed).  Queries prune
with Lemma 2: a subtree whose boundary satisfies ``<<c.v, q>> < tau``
cannot contain a qualifying tuple.

Configuration (:class:`PDRTreeConfig`) exposes every design axis the
paper evaluates or proposes:

* ``divergence`` — the distributional distance used for clustering
  (Figure 4 compares L1, L2, KL; KL wins);
* ``split_strategy`` — ``top_down`` or ``bottom_up`` (Figure 10;
  bottom-up wins);
* ``insert_policy`` — minimum area increase, most similar MBR, or the
  hybrid combination;
* ``fold_size`` / ``bits`` — the two orthogonal MBR compression schemes.

Every query runs as one of two walks over a per-query probe
(:class:`_Probe`): a node bound that caps the ``Match.score`` of every
member below a node, a leaf scorer, and the sketch's lower bounds if
any.  The *threshold walk* is a depth-first search that descends iff
the bound reaches ``tau``.  The *top-k walk* visits children best bound
first and raises its cut as answers arrive ("we can upgrade our
threshold quickly by finding better candidates at the beginning of the
search").  PEQ, PETQ and windowed queries take the threshold walk,
PEQ-top-k the top-k walk.

As an extension past the paper's equality focus, the same two walks
answer distributional-similarity queries (DSTQ / DSQ-top-k) on the
score scale ``-distance``: the node bound is the negated L1 / L2 deficit
of the query over the boundary, sound because every member lies under
the boundary componentwise (every other divergence, the KL family, gets no node bound and
falls back to a full sweep).  An attached sketch
(docs/sketch-prefilter.md) skips members and whole leaf pages whose
divergence lower bound cannot reach the walk's cut.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import (
    KeyNotFoundError,
    QueryError,
    RecordTooLargeError,
)
from repro.core.queries import (
    EqualityTopKQuery,
    Query,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
    check_pushed_bounds,
    threshold_form,
)
from repro.core.relation import UncertainRelation
from repro.core.results import Match, QueryResult, QueryStats
from repro.core.uda import UncertainAttribute
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS
from repro.pdrtree.compression import BoundaryCodec
from repro.pdrtree.insert_policy import INSERT_POLICIES, choose_child
from repro.pdrtree.mbr import BoundaryVector
from repro.pdrtree.node import (
    INTERNAL_HEADER_SIZE,
    LEAF_HEADER_SIZE,
    PDR_INTERNAL,
    PDR_LEAF,
    ChildEntry,
    LeafEntry,
    append_leaf_record,
    decode_internal,
    decode_leaf,
    encode_internal,
    encode_leaf,
    leaf_used_bytes,
    node_kind,
)
from repro.pdrtree.split import split_objects
from repro.sketch import resolve_sketch
from repro.sketch.search import (
    NO_SKETCH_ERROR,
    emit_probe,
    emit_prune,
    emit_verify,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

#: Safety margin for floating-point pruning bounds (never affects scores).
EPSILON = 1e-10

#: DecodedCache kinds for PDR node decodings.
LEAF_KIND = "pdr-leaf"
INTERNAL_KIND = "pdr-internal"


@dataclass(frozen=True)
class PDRTreeConfig:
    """Build-time knobs of a PDR-tree (defaults are the paper's winners)."""

    insert_policy: str = "hybrid"
    split_strategy: str = "bottom_up"
    divergence: str = "kl"
    fold_size: int | None = None
    bits: int | None = None

    def __post_init__(self) -> None:
        if self.insert_policy not in INSERT_POLICIES:
            raise QueryError(
                f"unknown insert policy {self.insert_policy!r}"
            )
        if self.split_strategy not in ("top_down", "bottom_up"):
            raise QueryError(
                f"unknown split strategy {self.split_strategy!r}"
            )
        if self.divergence not in ("l1", "l2", "kl"):
            raise QueryError(
                f"clustering divergence must be l1, l2 or kl; got "
                f"{self.divergence!r}"
            )


@dataclass(frozen=True)
class _Probe:
    """One query's view of the tree, all on the ``Match.score`` scale.

    Both walks read only this, so equality and similarity share one
    pruning rule (Lemma 2) and one top-k policy.
    """

    #: Upper bound on the score of every member below a node boundary.
    bound: Callable[[BoundaryVector], float]
    #: A member's exact score from its ``(items, probs)``.
    score: Callable[[np.ndarray, np.ndarray], float]
    #: The score a top-k answer must strictly exceed.
    least: float
    #: The sketch's divergence lower bounds per tid and per leaf page
    #: (:meth:`PDRTree._sketch_plan`); ``None`` without a sketch.
    lb_of: dict[int, float] | None = None
    leaf_min: dict[int, float] | None = None
    #: ``-div_ceiling``: the least score the sketch cut ever admits.
    sketch_floor: float = -math.inf

    def skips_leaf(self, page_id: int, cut: float) -> bool:
        """Whether the sketch rules a whole leaf page out at ``cut``."""
        if self.leaf_min is None:
            return False
        return _sketch_skips(self.leaf_min.get(page_id, -math.inf), cut)


def _sketch_skips(lower: float, cut: float) -> bool:
    """Whether a divergence lower bound rules a member (or leaf) out.

    ``-lower`` bounds the score from above, so the member cannot reach
    ``cut`` when it is strictly below it.  ``+inf`` marks an approx-mode
    non-candidate, skipped whatever the cut — even ``-inf``, the cut of
    a top-k walk that holds fewer than k answers.
    """
    return lower == math.inf or -lower < cut


def _similarity_bound(
    boundary: BoundaryVector,
    q_probs: np.ndarray,
    folded: np.ndarray,
    divergence: str,
) -> float:
    """A lower bound on the divergence from q to any member UDA.

    Every member satisfies ``u_i <= boundary[f(i)]``, so
    ``|q_i - u_i| >= max(0, q_i - boundary[f(i)])`` componentwise.
    That deficit bounds L1 and L2 only; every other divergence (KL,
    symmetric KL) gets 0, i.e. no pruning.
    """
    divergence = divergence.lower()
    if divergence not in ("l1", "l2"):
        return 0.0
    deficit = boundary.deficit(folded, q_probs)
    if divergence == "l1":
        return float(deficit.sum())
    return float(np.sqrt(np.square(deficit).sum()))


class PDRTree:
    """Probabilistic Distribution R-tree over one uncertain attribute."""

    def __init__(
        self,
        domain_size: int,
        disk: DiskManager | None = None,
        pool: BufferPool | None = None,
        config: PDRTreeConfig | None = None,
    ) -> None:
        self.domain_size = domain_size
        self.config = config if config is not None else PDRTreeConfig()
        self.codec = BoundaryCodec(
            domain_size,
            fold_size=self.config.fold_size,
            bits=self.config.bits,
        )
        self.disk = disk if disk is not None else DiskManager()
        self._pool = pool if pool is not None else BufferPool(self.disk, 4096)
        root = self._pool.new_page(tag="pdr-node")
        encode_leaf(root, self.codec, [])
        self._pool.mark_dirty(root.page_id)
        self.root_page_id = root.page_id
        self.height = 1
        self.num_tuples = 0
        self._leaf_of_tid: dict[int, int] = {}
        #: Whether the last :meth:`load` had to rebuild from leaf pages.
        self.recovered = False
        #: Monotonic mutation counter (insert/delete), the staleness
        #: stamp long-lived caches compare (docs/mutability.md).
        self.mutations = 0
        self._wal = None
        #: LSN of the last write-ahead-log record applied to this tree.
        self.wal_lsn = 0
        #: Optional :class:`~repro.sketch.SketchIndex` enabling sketch
        #: pre-filtered similarity traversals (docs/sketch-prefilter.md).
        self.sketch = None

    # -- cached node access ----------------------------------------------------
    #
    # Decoded nodes live in the pool's DecodedCache, keyed by the page's
    # (id, version).  The cache never bypasses the buffer pool — every
    # access still fetches the page, so I/O accounting is unaffected —
    # and writers re-prime it after each encode (this tree is the only
    # writer), so version bumps strand stale entries rather than losing
    # the decode work.

    def _get_leaf(self, page_id: int) -> list[LeafEntry]:
        page = self._pool.fetch_page(page_id)
        return self._pool.decoded.get_or_decode(LEAF_KIND, page, decode_leaf)

    def _put_leaf(self, page_id: int, entries: list[LeafEntry]) -> None:
        page = self._pool.fetch_page(page_id)
        encode_leaf(page, self.codec, entries)
        self._pool.mark_dirty(page_id)
        self._pool.decoded.put(LEAF_KIND, page, entries)

    def _get_internal(self, page_id: int) -> list[ChildEntry]:
        page = self._pool.fetch_page(page_id)
        return self._pool.decoded.get_or_decode(
            INTERNAL_KIND, page, self._decode_internal
        )

    def _decode_internal(self, page) -> list[ChildEntry]:
        return decode_internal(page, self.codec)

    def _put_internal(self, page_id: int, entries: list[ChildEntry]) -> None:
        page = self._pool.fetch_page(page_id)
        encode_internal(page, self.codec, entries)
        self._pool.mark_dirty(page_id)
        # Prime with the *decoded* entries, not the originals: lossy
        # codecs (discretization) round boundaries on encode, and every
        # reader — cached or not — must see exactly the on-page values,
        # or pruning decisions would depend on the cache being enabled.
        self._pool.decoded.put(
            INTERNAL_KIND, page, self._decode_internal(page)
        )

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
            raise QueryError("buffer pool must be backed by the tree's disk")
        self._pool.flush_all()  # don't strand dirty pages in the old pool
        self._pool = pool
        if self.sketch is not None:
            self.sketch.pool = pool

    # -- size accounting ---------------------------------------------------------

    def _leaf_fits(self, entries: list[LeafEntry]) -> bool:
        size = LEAF_HEADER_SIZE + sum(entry.encoded_size for entry in entries)
        return size <= self.disk.page_size

    def _internal_fits(self, entries: list[ChildEntry]) -> bool:
        size = INTERNAL_HEADER_SIZE + sum(
            entry.encoded_size(self.codec) for entry in entries
        )
        return size <= self.disk.page_size

    # -- construction ---------------------------------------------------------------

    def build(self, relation: UncertainRelation) -> None:
        """Insert every tuple of ``relation`` (tuple-at-a-time, as the
        dynamic structure the paper describes)."""
        if self.num_tuples:
            raise QueryError("tree already built; create a fresh one")
        if len(relation.domain) != self.domain_size:
            raise QueryError(
                f"relation domain size {len(relation.domain)} != tree "
                f"domain size {self.domain_size}"
            )
        for tid in relation.tids():
            self.insert(tid, relation.uda_of(tid))
        self._pool.flush_all()

    def insert(self, tid: int, uda: UncertainAttribute) -> None:
        """Insert one tuple, expanding boundaries along the descent path.

        If expanding a boundary overflows an internal node, the node is
        split and the descent restarts from the root (each retry performs
        a split, so the loop terminates).
        """
        if tid in self._leaf_of_tid:
            raise QueryError(f"tid {tid} already present")
        entry = LeafEntry(tid=tid, items=uda.items, probs=uda.probs)
        if LEAF_HEADER_SIZE + entry.encoded_size > self.disk.page_size:
            raise RecordTooLargeError(
                f"UDA with {uda.nnz} pairs does not fit in a "
                f"{self.disk.page_size}-byte page"
            )
        lsn = (
            self._wal.append_insert(tid, uda.items, uda.probs)
            if self._wal is not None
            else None
        )
        self._apply_insert(entry, uda)
        if lsn is not None:
            self.wal_lsn = lsn

    def _apply_insert(self, entry: LeafEntry, uda: UncertainAttribute) -> None:
        """Descend-and-place (no WAL write); the paper's insert heuristics
        (:func:`~repro.pdrtree.insert_policy.choose_child`) pick the path."""
        proj_items, proj_values = self.codec.project(uda.items, uda.probs)
        while not self._insert_attempt(entry, proj_items, proj_values):
            pass
        if self.sketch is not None:
            # Sketch the f32-rounded values the leaf page stores (WAL
            # replay funnels through here, so recovery re-sketches
            # identically).
            self.sketch.insert(
                entry.tid,
                np.asarray(uda.items, dtype=np.int64),
                np.asarray(uda.probs, dtype=np.float32).astype(np.float64),
            )
        self.num_tuples += 1
        self.mutations += 1

    def _insert_attempt(
        self,
        entry: LeafEntry,
        proj_items: np.ndarray,
        proj_values: np.ndarray,
    ) -> bool:
        """One descent; returns False when a mid-path split forces a retry."""
        path: list[tuple[int, int]] = []  # (page_id, chosen child index)
        page_id = self.root_page_id
        while True:
            page = self._pool.fetch_page(page_id)
            if node_kind(page) == PDR_LEAF:
                break
            entries = self._get_internal(page_id)
            index = choose_child(
                entries,
                proj_items,
                proj_values,
                self.config.insert_policy,
                self.config.divergence,
            )
            chosen = entries[index]
            if not chosen.boundary.dominates(proj_items, proj_values):
                entries[index] = ChildEntry(
                    child_id=chosen.child_id,
                    boundary=chosen.boundary.expanded(proj_items, proj_values),
                )
                if not self._internal_fits(entries):
                    # The grown boundary no longer fits: split this node
                    # (with the expanded entry, which keeps every boundary
                    # a valid over-estimate) and retry from the root.
                    self._split_internal(page_id, entries, path)
                    return False
                self._put_internal(page_id, entries)
                chosen = entries[index]
            path.append((page_id, index))
            page_id = chosen.child_id
        # Fast path: append the record in place when it fits.  The decoded
        # entry list is popped before the write (which bumps the page
        # version) and re-primed under the new version afterwards, so the
        # decode work survives the append.
        if leaf_used_bytes(page) + entry.encoded_size <= page.size:
            cached = self._pool.decoded.pop(LEAF_KIND, page)
            appended = append_leaf_record(page, entry)
            assert appended
            self._pool.mark_dirty(page_id)
            if cached is not None:
                cached.append(entry)
                self._pool.decoded.put(LEAF_KIND, page, cached)
            self._leaf_of_tid[entry.tid] = page_id
        else:
            self._split_leaf(page_id, self._get_leaf(page_id) + [entry], path)
        return True

    def delete(self, tid: int) -> None:
        """Remove a tuple from its leaf.

        Boundaries are not tightened (they remain valid over-estimates);
        rebuild the tree to re-compact after heavy deletion.
        """
        if tid not in self._leaf_of_tid:
            raise KeyNotFoundError(f"tid {tid} not in tree")
        lsn = (
            self._wal.append_delete(tid) if self._wal is not None else None
        )
        self._apply_delete(tid)
        if lsn is not None:
            self.wal_lsn = lsn

    def _apply_delete(self, tid: int) -> None:
        """Remove a tuple from its leaf (no WAL write)."""
        try:
            page_id = self._leaf_of_tid.pop(tid)
        except KeyError:
            raise KeyNotFoundError(f"tid {tid} not in tree") from None
        entries = [e for e in self._get_leaf(page_id) if e.tid != tid]
        self._put_leaf(page_id, entries)
        if self.sketch is not None:
            self.sketch.delete(tid)
        self.num_tuples -= 1
        self.mutations += 1

    # -- write-ahead log -------------------------------------------------------

    def attach_wal(self, wal, *, replay: bool = True) -> None:
        """Attach a :class:`~repro.wal.WriteAheadLog`; replay its tail.

        Records with ``lsn <= self.wal_lsn`` were absorbed by the image
        this tree was loaded from and are skipped; the rest re-apply in
        order, replayed inserts descending through the same
        ``insert_policy`` heuristics as the originals.  Subsequent
        :meth:`insert`/:meth:`delete` calls log to ``wal`` before
        applying; a torn tail truncated when ``wal`` was opened marks
        this tree :attr:`recovered`.
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
                uda = UncertainAttribute(record.items, record.probs)
                entry = LeafEntry(
                    tid=record.tid, items=uda.items, probs=uda.probs
                )
                self._apply_insert(entry, uda)
            else:
                self._apply_delete(record.tid)
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

    # -- splitting ------------------------------------------------------------------

    def _rebalance_bytes(
        self,
        sizes: list[int],
        group_a: list[int],
        group_b: list[int],
        budget: int,
    ) -> tuple[list[int], list[int]]:
        """Shift members so both groups fit their byte budget.

        The split strategies balance *counts* (the paper's 3/4 rule); with
        variable-length records a group can still overflow its page, in
        which case members migrate to the other group, largest first.
        """
        def total(group: list[int]) -> int:
            return sum(sizes[i] for i in group)

        for source, sink in ((group_a, group_b), (group_b, group_a)):
            while total(source) > budget and len(source) > 1:
                largest = max(source, key=lambda i: sizes[i])
                source.remove(largest)
                sink.append(largest)
        if total(group_a) > budget or total(group_b) > budget:
            raise RecordTooLargeError(
                "node split cannot fit either half into a page"
            )
        return group_a, group_b

    def _split_leaf(
        self,
        page_id: int,
        entries: list[LeafEntry],
        path: list[tuple[int, int]],
    ) -> None:
        projections = [
            self.codec.project(entry.items, entry.probs) for entry in entries
        ]
        group_a, group_b = split_objects(
            projections, self.config.split_strategy, self.config.divergence
        )
        sizes = [entry.encoded_size for entry in entries]
        budget = self.disk.page_size - LEAF_HEADER_SIZE
        group_a, group_b = self._rebalance_bytes(sizes, group_a, group_b, budget)
        new_page = self._pool.new_page(tag="pdr-node")
        for target_id, group in (
            (page_id, group_a),
            (new_page.page_id, group_b),
        ):
            members = [entries[i] for i in group]
            self._put_leaf(target_id, members)
            for member in members:
                self._leaf_of_tid[member.tid] = target_id
        boundary_a = BoundaryVector.over([projections[i] for i in group_a])
        boundary_b = BoundaryVector.over([projections[i] for i in group_b])
        self._replace_in_parent(
            path,
            page_id,
            [(page_id, boundary_a), (new_page.page_id, boundary_b)],
        )

    def _split_internal(
        self,
        page_id: int,
        entries: list[ChildEntry],
        path: list[tuple[int, int]],
    ) -> None:
        objects = [
            (entry.boundary.items, entry.boundary.values) for entry in entries
        ]
        group_a, group_b = split_objects(
            objects, self.config.split_strategy, self.config.divergence
        )
        sizes = [entry.encoded_size(self.codec) for entry in entries]
        budget = self.disk.page_size - INTERNAL_HEADER_SIZE
        group_a, group_b = self._rebalance_bytes(sizes, group_a, group_b, budget)
        new_page = self._pool.new_page(tag="pdr-node")
        for target_id, group in (
            (page_id, group_a),
            (new_page.page_id, group_b),
        ):
            self._put_internal(target_id, [entries[i] for i in group])
        boundary_a = BoundaryVector.over([objects[i] for i in group_a])
        boundary_b = BoundaryVector.over([objects[i] for i in group_b])
        self._replace_in_parent(
            path,
            page_id,
            [(page_id, boundary_a), (new_page.page_id, boundary_b)],
        )

    def _replace_in_parent(
        self,
        path: list[tuple[int, int]],
        old_child: int,
        replacements: list[tuple[int, BoundaryVector]],
    ) -> None:
        new_entries = [
            ChildEntry(child_id=child_id, boundary=boundary)
            for child_id, boundary in replacements
        ]
        if not path:
            # The split node was the root: grow a new internal root.
            if not self._internal_fits(new_entries):
                raise RecordTooLargeError(
                    f"an internal node cannot hold two boundary vectors of "
                    f"this domain ({self.domain_size} items) in a "
                    f"{self.disk.page_size}-byte page; enable MBR "
                    "compression (fold_size and/or bits) — see paper "
                    "Section 3.2, 'Compression techniques'"
                )
            root = self._pool.new_page(tag="pdr-node")
            self._put_internal(root.page_id, new_entries)
            self.root_page_id = root.page_id
            self.height += 1
            return
        parent_id, index = path[-1]
        entries = self._get_internal(parent_id)
        if entries[index].child_id != old_child:
            raise QueryError(
                "internal corruption: parent entry does not reference the "
                "split child"
            )
        entries[index : index + 1] = new_entries
        if self._internal_fits(entries):
            self._put_internal(parent_id, entries)
        else:
            self._split_internal(parent_id, entries, path[:-1])

    # -- sketch pre-filtering --------------------------------------------------

    def build_sketch(self, params=None, *, flush: bool = True) -> None:
        """Build (or rebuild) the attached sketch store over the tree.

        Gathers every member by one walk over the leaf pages, then
        sketches in ascending-tid order so the page image is a
        deterministic function of the logical contents.  Probabilities
        are f32-rounded to match what the leaf pages store (what the
        similarity traversals verify against).
        """
        from repro.sketch import SketchIndex

        members: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for page_id in set(self._leaf_of_tid.values()):
            for entry in self._get_leaf(page_id):
                members[entry.tid] = (entry.items, entry.probs)
        sketch = SketchIndex(self._pool, params)
        for tid in sorted(members):
            items, probs = members[tid]
            sketch.insert(
                tid,
                np.asarray(items, dtype=np.int64),
                np.asarray(probs, dtype=np.float32).astype(np.float64),
            )
        self.sketch = sketch
        if flush:
            self._pool.flush_all()

    def _sketch_plan(self, query, mode: str):
        """Per-tid divergence lower bounds driving a sketch-assisted walk.

        Returns ``(lb_of_tid, min_lb_of_leaf)`` or ``(None, None)`` in
        ``off`` mode.  A tid the sketch does not know gets ``-inf`` in
        exact mode (never skipped).  Approx mode is a candidate set, not
        bounds: non-candidates get ``+inf``, which :func:`_sketch_skips`
        skips whatever the cut (that is the bounded-recall trade).
        """
        if mode == "off":
            return None, None
        if self.sketch is None:
            raise QueryError(NO_SKETCH_ERROR.format(mode=mode))
        emit_probe(mode, query.divergence, self.sketch.num_tuples)
        if mode == "approx":
            allowed = set(self.sketch.lsh_candidates(query.q.items))
            emit_prune(
                len(self._leaf_of_tid) - len(allowed), len(allowed)
            )
            lb_of = {
                tid: (0.0 if tid in allowed else math.inf)
                for tid in self._leaf_of_tid
            }
        else:
            tids, lbs = self.sketch.bounds(query)
            lb_of = dict(zip(tids.tolist(), lbs.tolist()))
        leaf_min: dict[int, float] = {}
        for tid, page_id in self._leaf_of_tid.items():
            lb = lb_of.get(tid, -math.inf)
            current = leaf_min.get(page_id)
            if current is None or lb < current:
                leaf_min[page_id] = lb
        return lb_of, leaf_min

    # -- queries --------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        *,
        strategy: str | None = None,
        tau_floor: float = 0.0,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> QueryResult:
        """Answer any query descriptor of :mod:`repro.core.queries`.

        The keyword surface is the one
        :meth:`ProbabilisticInvertedIndex.execute
        <repro.invindex.index.ProbabilisticInvertedIndex.execute>`
        shares, so callers forward what they were given; the tree has
        one walk per query shape, so ``strategy`` must be ``None``.

        ``tau_floor`` is an externally supplied lower bound on the
        caller's global k-th score (the rank-join / shard-coordinator
        elevation): the top-k walk prunes against
        ``max(local tau_k, tau_floor)`` and may omit matches scoring
        strictly below the floor.  Only meaningful for
        :class:`EqualityTopKQuery`; must be ``0.0`` for every other
        descriptor, and at ``0.0`` the walk is bit-identical to the
        classic one.

        ``sketch`` / ``div_ceiling`` are the similarity-query analogs:
        ``sketch`` overrides the resolved ``REPRO_SKETCH`` mode, and
        ``div_ceiling`` caps a :class:`SimilarityTopKQuery` at the shard
        coordinator's global k-th divergence (the dual of ``tau_floor``
        — matches with distance strictly above it may be omitted).  Both
        are rejected on non-similarity descriptors
        (:func:`~repro.core.queries.check_pushed_bounds`).
        """
        if strategy is not None:
            raise QueryError("PDR-tree takes no search strategy")
        similarity = check_pushed_bounds(query, tau_floor, sketch, div_ceiling)
        mode = resolve_sketch(sketch) if similarity else "off"
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(
                "query.begin",
                structure="pdr-tree",
                query=type(query).__name__,
            )
        result = self._dispatch(query, tau_floor, mode, div_ceiling)
        if tracer is not None:
            tracer.event(
                "query.end", structure="pdr-tree", matches=len(result)
            )
        return result

    def _dispatch(
        self,
        query: Query,
        tau_floor: float,
        sketch_mode: str,
        div_ceiling: float | None,
    ) -> QueryResult:
        """Route ``query`` to its walk, on the ``Match.score`` scale.

        Similarity scores are ``-distance``, so a DSTQ threshold becomes
        ``tau = -threshold`` (IEEE negation is exact: nothing moves).
        """
        if isinstance(query, EqualityTopKQuery):
            return self._top_k_walk(
                self._equality_probe(query.q), query.k, tau_floor
            )
        if isinstance(query, SimilarityThresholdQuery):
            probe = self._similarity_probe(query, sketch_mode)
            return self._threshold_walk(probe, -query.threshold)
        if isinstance(query, SimilarityTopKQuery):
            probe = self._similarity_probe(query, sketch_mode, div_ceiling)
            return self._top_k_walk(probe, query.k, -math.inf)
        reduced = threshold_form(query, self.domain_size)
        if reduced is None:
            raise QueryError(f"unsupported query type: {type(query).__name__}")
        q, tau = reduced
        return self._threshold_walk(self._equality_probe(q), tau)

    def _equality_probe(self, q) -> _Probe:
        """Lemma 2's ``<<c.v, q>>`` bound over the equality score."""
        q_items, q_values = self.codec.fold_query(q.items, q.probs)
        return _Probe(
            bound=lambda boundary: boundary.dot(q_items, q_values),
            score=lambda items, probs: q.equality_with_arrays(items, probs),
            least=0.0,
        )

    def _similarity_probe(
        self, query, sketch_mode: str, div_ceiling: float | None = None
    ) -> _Probe:
        """The negated divergence bound and score, plus the sketch's plan."""
        lb_of, leaf_min = self._sketch_plan(query, sketch_mode)
        q = query.q
        folded = np.array([self.codec.fold_item(int(i)) for i in q.items])
        divergence = query.divergence
        return _Probe(
            bound=lambda boundary: -_similarity_bound(
                boundary, q.probs, folded, divergence
            ),
            score=lambda items, probs: -query.distance_arrays(items, probs),
            least=-math.inf,
            lb_of=lb_of,
            leaf_min=leaf_min,
            sketch_floor=-math.inf if div_ceiling is None else -div_ceiling,
        )

    # -- the two walks ----------------------------------------------------------------

    def _visit(self, page_id: int, stats: QueryStats) -> bool:
        """Fetch and count one node; returns whether it is internal."""
        page = self._pool.fetch_page(page_id)
        stats.nodes_visited += 1
        internal = node_kind(page) == PDR_INTERNAL
        METRICS.inc("pdr.visit")
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(
                "pdr.visit",
                page_id=page_id,
                node="internal" if internal else "leaf",
            )
        return internal

    @staticmethod
    def _verdict(child: int, bound: float, tau: float, descend: bool) -> None:
        """One Lemma 2 decision; ``tau`` is left out while it is ``-inf``."""
        verdict = "descend" if descend else "prune"
        METRICS.inc("pdr.verdict." + verdict)
        tracer = _trace.ACTIVE
        if tracer is not None:
            cut = {} if tau == -math.inf else {"tau": tau}
            tracer.event(
                "pdr.verdict", child=child, bound=bound, verdict=verdict, **cut
            )

    def _scan_leaf(self, probe: _Probe, page_id: int, cut: float, stats):
        """Score a leaf's members, less those the sketch rules out at ``cut``.

        Yields ``(tid, score)``; every yielded member is one verification.
        """
        lb_of = probe.lb_of
        for entry in self._get_leaf(page_id):
            if lb_of is not None:
                if _sketch_skips(lb_of.get(entry.tid, -math.inf), cut):
                    continue
                emit_verify(entry.tid)
            stats.candidates_examined += 1
            yield entry.tid, probe.score(entry.items, entry.probs)

    def _threshold_walk(self, probe: _Probe, tau: float) -> QueryResult:
        """Depth-first search for every member scoring at least ``tau``.

        Lemma 2: a child whose bound falls below ``tau`` holds no answer.
        """
        stats = QueryStats()
        matches: list[Match] = []
        stack = [self.root_page_id]
        while stack:
            page_id = stack.pop()
            if probe.skips_leaf(page_id, tau):
                continue  # the whole leaf page is skipped unread
            if self._visit(page_id, stats):
                for entry in self._get_internal(page_id):
                    bound = probe.bound(entry.boundary)
                    descend = bound >= tau - EPSILON
                    self._verdict(entry.child_id, bound, tau, descend)
                    if descend:
                        stack.append(entry.child_id)
            else:
                for tid, score in self._scan_leaf(probe, page_id, tau, stats):
                    if score >= tau:
                        matches.append(Match(tid=tid, score=score))
        return QueryResult(matches, stats)

    def _top_k_walk(self, probe: _Probe, k: int, floor: float) -> QueryResult:
        """Greedy depth-first top-k with a dynamically raised threshold.

        Children are visited best bound first; the cut is the k-th score
        held (``probe.least`` until k are held), raised to ``floor`` —
        the caller's elevation, which lets Lemma 2 fire before k local
        answers exist.  A subtree pruned this way holds only members
        scoring below the floor, which the caller's merge discards.
        """
        stats = QueryStats()
        found: list[Match] = []

        def cut() -> float:
            held = found[k - 1].score if len(found) >= k else probe.least
            return held if held > floor else floor

        def sketch_cut() -> float:
            # Only valid while ``found`` is sorted (leaf visits sort on
            # exit), so leaves freeze it before appending: a frozen cut
            # is never above the live one, which can only under-skip.
            return max(cut(), probe.sketch_floor)

        def visit(page_id: int) -> None:
            if probe.skips_leaf(page_id, sketch_cut()):
                return  # the whole leaf page is skipped unread
            if self._visit(page_id, stats):
                scored = [
                    (probe.bound(entry.boundary), entry.child_id)
                    for entry in self._get_internal(page_id)
                ]
                scored.sort(key=lambda pair: -pair[0])
                for idx, (bound, child_id) in enumerate(scored):
                    tau = cut()
                    if bound < tau - EPSILON:
                        # Bounds descend: this sibling and every later one
                        # prune under the cut frozen at this moment.
                        for later_bound, later_child in scored[idx:]:
                            self._verdict(later_child, later_bound, tau, False)
                        break
                    self._verdict(child_id, bound, tau, True)
                    visit(child_id)
            else:
                frozen = sketch_cut()
                for tid, score in self._scan_leaf(probe, page_id, frozen, stats):
                    if score > probe.least:
                        found.append(Match(tid=tid, score=score))
                found.sort()
                del found[max(k, 0) + 64 :]  # keep a slack buffer sorted

        visit(self.root_page_id)
        found.sort()
        return QueryResult(found[:k], stats)

    # -- persistence ----------------------------------------------------------------

    def save(self, path) -> None:
        """Persist the tree (pages plus catalog) to ``path``.

        The tid -> leaf directory is rebuilt by a tree walk on load, so
        the catalog stays small.  The set of leaf page ids *is* saved:
        leaves are the tree's ground truth, and recovery (see
        :meth:`load`) must be able to find them without trusting the
        internal pages that may be the very thing that is damaged.
        """
        from repro.storage.persistence import save_disk_to_path

        self._pool.flush_all()
        leaf_page_ids = set(self._leaf_of_tid.values())
        if self.height == 1:
            leaf_page_ids.add(self.root_page_id)  # the (maybe empty) root leaf
        metadata = {
            "kind": "pdr-tree",
            "domain_size": self.domain_size,
            "num_tuples": self.num_tuples,
            "root_page_id": self.root_page_id,
            "height": self.height,
            "leaf_page_ids": sorted(leaf_page_ids),
            "wal_lsn": self.wal_lsn,
            "config": {
                "insert_policy": self.config.insert_policy,
                "split_strategy": self.config.split_strategy,
                "divergence": self.config.divergence,
                "fold_size": self.config.fold_size,
                "bits": self.config.bits,
            },
        }
        if self.sketch is not None:
            metadata["sketch"] = self.sketch.state()
        save_disk_to_path(path, self.disk, metadata)

    @classmethod
    def load(cls, path, *, recover: bool = True) -> "PDRTree":
        """Reopen a tree persisted with :meth:`save`.

        The image is checksum-scanned on attach.  When damage is
        confined to internal pages (and ``recover`` is true), a fresh
        tree is rebuilt by re-inserting every entry from the intact leaf
        pages.  Damage to any leaf page — or ``recover=False`` with any
        damage — raises
        :class:`~repro.core.exceptions.RecoveryError`: a wrong answer is
        never silently served.  :attr:`recovered` records which path ran.
        """
        from repro.core.exceptions import RecoveryError
        from repro.storage.persistence import scan_disk_from_path

        disk, metadata, report = scan_disk_from_path(path)
        if metadata.get("kind") != "pdr-tree":
            raise QueryError(
                f"{path} holds a {metadata.get('kind')!r} structure, "
                "not a PDR-tree"
            )
        config = PDRTreeConfig(**metadata["config"])
        if not report.clean:
            if not recover:
                raise RecoveryError(
                    f"{path} is damaged (corrupt pages "
                    f"{report.corrupt_page_ids}, "
                    f"truncated={report.truncated}) and recovery is disabled"
                )
            return cls._recover(path, disk, metadata, report, config)
        tree = cls.__new__(cls)
        tree.domain_size = int(metadata["domain_size"])
        tree.config = config
        tree.codec = BoundaryCodec(
            tree.domain_size,
            fold_size=config.fold_size,
            bits=config.bits,
        )
        tree.disk = disk
        tree._pool = BufferPool(disk, 4096)
        tree.root_page_id = int(metadata["root_page_id"])
        tree.height = int(metadata["height"])
        tree.num_tuples = int(metadata["num_tuples"])
        tree.recovered = False
        tree.mutations = 0
        tree._wal = None
        tree.wal_lsn = int(metadata.get("wal_lsn", 0))
        tree._leaf_of_tid = {}
        stack = [tree.root_page_id]
        while stack:
            page_id = stack.pop()
            page = tree._pool.fetch_page(page_id)
            if node_kind(page) == PDR_INTERNAL:
                stack.extend(
                    entry.child_id for entry in tree._get_internal(page_id)
                )
            else:
                for entry in tree._get_leaf(page_id):
                    tree._leaf_of_tid[entry.tid] = page_id
        if tree.num_tuples != len(tree._leaf_of_tid):
            raise QueryError(
                f"{path} is corrupt: catalog says {tree.num_tuples} "
                f"tuples, leaves hold {len(tree._leaf_of_tid)}"
            )
        tree.sketch = None
        sketch_state = metadata.get("sketch")
        if sketch_state is not None:
            from repro.sketch import SketchIndex

            tree.sketch = SketchIndex.attach(
                tree._pool, sketch_state, set(tree._leaf_of_tid)
            )
        return tree

    @classmethod
    def _recover(
        cls, path, disk, metadata: dict, report, config: "PDRTreeConfig"
    ) -> "PDRTree":
        """Rebuild a tree from the intact leaves of a damaged image."""
        from repro.core.exceptions import RecoveryError
        from repro.pdrtree.node import decode_leaf as _decode_leaf

        leaf_page_ids = metadata.get("leaf_page_ids")
        if leaf_page_ids is None:
            raise RecoveryError(
                f"{path}: image predates leaf tracking; cannot locate "
                "the authoritative leaf pages to rebuild from"
            )
        leaf_pages = set(int(pid) for pid in leaf_page_ids)
        damaged = leaf_pages & set(report.corrupt_page_ids)
        missing = leaf_pages - set(disk.page_ids())
        if damaged or missing:
            raise RecoveryError(
                f"{path}: leaf pages damaged beyond repair "
                f"(corrupt {sorted(damaged)}, missing {sorted(missing)})"
            )
        # Internal pages are derived data: pull every entry off the
        # intact leaves, then rebuild a fresh tree by re-insertion.
        salvage_pool = BufferPool(disk, 4096)
        entries = []
        for page_id in sorted(leaf_pages):
            page = salvage_pool.fetch_page(page_id)
            entries.extend(_decode_leaf(page))
        if int(metadata["num_tuples"]) != len(entries):
            raise RecoveryError(
                f"{path} is corrupt: catalog says {metadata['num_tuples']} "
                f"tuples, intact leaves hold {len(entries)}"
            )
        tree = cls(int(metadata["domain_size"]), config=config)
        for entry in entries:
            tree.insert(entry.tid, UncertainAttribute(entry.items, entry.probs))
        sketch_state = metadata.get("sketch")
        if sketch_state is not None:
            # Sketch pages lived on the damaged disk the rebuild left
            # behind; re-derive them on the fresh tree.
            from repro.sketch import SketchParams

            tree.build_sketch(
                SketchParams(**sketch_state["params"]), flush=False
            )
        tree._pool.flush_all()
        tree.recovered = True
        tree.wal_lsn = int(metadata.get("wal_lsn", 0))
        return tree

    def __repr__(self) -> str:
        return (
            f"PDRTree(tuples={self.num_tuples}, height={self.height}, "
            f"pages={self.disk.num_pages}, codec={self.codec.describe()!r})"
        )
