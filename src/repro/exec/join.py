"""Block rank-join engine: shared-scan probing with adaptive thresholds.

The index-nested-loop joins in :mod:`repro.core.joins` issue one probe
per outer tuple, each against whatever buffer pool is installed on the
inner index.  That reproduces the paper's protocol faithfully but wastes
physical work under real workloads: outer tuples drawn from the same
distribution touch the same posting lists over and over, and a top-k
join learns a global score bound that the per-probe loop never exploits.

:class:`BlockJoinExecutor` partitions the outer relation into blocks of
``block_size`` tuples (``--join-block`` / ``REPRO_JOIN_BLOCK``) and adds
three composable optimisations.  The first two need a block of two or
more tuples and the third needs ``adaptive_tau`` (on by default only
above block 1), so **block size 1 with no pool override reads, answers
and traces exactly like the per-probe join** of :mod:`repro.core.joins`,
which stays the reference:

* **Shared-scan block probing** (PETJ over the inverted index): the
  block's touched posting lists are each read once via
  :meth:`PostingList.read_all`, and every (outer row, inner tuple) score
  is computed by one grouped-``fsum`` kernel call
  (:func:`repro.core.kernels.block_scores`).  The kernel sums exactly
  the same product multiset as a per-probe verification, so scores are
  bit-identical; only the physical read pattern changes.
* **Grouped probing** (top-k joins, DSTJ, non-inverted inners): probes
  inside a block share one fresh pool, run in touched-item order
  (:func:`repro.exec.batch.plan_shared_order`), pin the head pages of
  posting lists shared by two or more probes
  (:func:`repro.exec.batch.prefetch_shared_heads`, traced as
  ``join.shared_page``), and memoize random-access decodes via
  :meth:`ProbabilisticInvertedIndex.shared_scan`.
* **Adaptive top-k threshold propagation** (PEJ-top-k): a
  :class:`~repro.core.joins.BoundedPairHeap` tracks the global k-th
  pair score; every subsequent probe passes it to the index as
  ``tau_floor``, so the inverted index's Lemma 1 early stops and the
  PDR-tree's top-k cut fire against the *join-wide* threshold instead
  of each probe's local one.  Probes that ran with a raised bound are
  traced as ``join.tau_raised``.  Exactness: the floor only ever rises
  toward the final global k-th score, and any match it suppresses
  scores strictly below that floor, so it can never displace a
  retained pair — see ``docs/joins.md`` for the full argument.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core import kernels
from repro.core.config import int_knob
from repro.core.exceptions import QueryError
from repro.core.joins import (
    BoundedPairHeap,
    JoinPair,
    JoinResult,
    _join_begin,
    _join_end,
    _join_probe,
)
from repro.core.queries import (
    EqualityThresholdQuery,
    EqualityTopKQuery,
    SimilarityThresholdQuery,
)
from repro.core.relation import UncertainRelation
from repro.core.results import QueryStats
from repro.exec.batch import (
    DEFAULT_PIN_RESERVE,
    plan_shared_order,
    prefetch_shared_heads,
)
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS
from repro.storage.buffer import BufferPool

#: Environment variable selecting the default join block size.
JOIN_BLOCK_ENV = "REPRO_JOIN_BLOCK"

#: The join-block knob: explicit arg > :func:`join_block_override` >
#: ``REPRO_JOIN_BLOCK`` > 1 (see :class:`repro.core.config.Knob`).  An
#: unset / empty / ``off`` environment value means block size 1 — the
#: per-probe protocol, which is always the I/O baseline.
JOIN_BLOCK = int_knob(
    JOIN_BLOCK_ENV,
    "join block size",
    minimum=1,
    special={"off": 1, "default": 1},
    default=1,
)
resolve_join_block = JOIN_BLOCK.resolve
join_block_override = JOIN_BLOCK.override


def _block_begin(join_kind: str, block: int, size: int, **fields) -> None:
    METRICS.inc("join.block_begin")
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.event(
            "join.block_begin",
            join_kind=join_kind,
            block=block,
            size=size,
            **fields,
        )


def _block_end(
    join_kind: str, block: int, pairs: int, shared_pages: int
) -> None:
    METRICS.inc("join.block_end")
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.event(
            "join.block_end",
            join_kind=join_kind,
            block=block,
            pairs=pairs,
            shared_pages=shared_pages,
        )


def _tau_raised(left_tid: int, tau: float) -> None:
    METRICS.inc("join.tau_raised")
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.event("join.tau_raised", left_tid=left_tid, tau=tau)


class BlockJoinExecutor:
    """Index-nested-loop joins over blocks of the outer relation.

    Parameters
    ----------
    right:
        The inner relation (also the naive executor when no index is
        given).
    right_index:
        Optional index over ``right`` (inverted index or PDR-tree);
        probes go to it when present, mirroring the ``right_index``
        argument of :mod:`repro.core.joins`.
    strategy:
        Inverted-index search strategy for probes (must be ``None``
        for other inners, mirroring :class:`BatchExecutor`).
    block_size:
        Outer tuples per block; ``None`` consults
        :func:`resolve_join_block`.
    pool_size:
        ``None`` probes against whatever pool is currently installed on
        the inner index — the per-probe join's protocol, shared across
        all probes.  An integer installs one fresh
        :class:`BufferPool` of that many frames per *block* (so block
        size 1 gives the bench harness's fresh-pool-per-probe
        protocol).
    pin_reserve:
        Frames the shared-head prefetch must leave un-pinned.
    adaptive_tau:
        Enable adaptive threshold propagation for :meth:`pej_top_k`.
        ``None`` enables it exactly when ``block_size > 1``, so the
        default block-1 configuration stays bit-identical to the
        per-probe join.
    """

    def __init__(
        self,
        right: UncertainRelation,
        right_index=None,
        *,
        strategy: str | None = None,
        block_size: int | None = None,
        pool_size: int | None = None,
        pin_reserve: int = DEFAULT_PIN_RESERVE,
        adaptive_tau: bool | None = None,
    ) -> None:
        self.right = right
        self.right_index = right_index
        self.inner = right_index if right_index is not None else right
        if strategy is not None and not isinstance(
            self.inner, ProbabilisticInvertedIndex
        ):
            raise QueryError("only the inverted index takes a search strategy")
        if pin_reserve < 0:
            raise QueryError(f"pin_reserve must be >= 0, got {pin_reserve}")
        if pool_size is not None and pool_size < 1:
            raise QueryError(f"pool_size must be >= 1, got {pool_size}")
        self.strategy = strategy
        self.block_size = resolve_join_block(block_size)
        self.pool_size = pool_size
        self.pin_reserve = pin_reserve
        self.adaptive_tau = (
            self.block_size > 1 if adaptive_tau is None else bool(adaptive_tau)
        )

    # -- public API ---------------------------------------------------------

    def petj(self, left: UncertainRelation, threshold: float) -> JoinResult:
        """Block PETJ; same contract as :func:`repro.core.joins.petj`."""
        if not 0.0 < threshold <= 1.0:
            raise QueryError(
                f"join threshold must lie in (0, 1], got {threshold}"
            )
        _join_begin("petj", threshold=threshold)
        return self._run(
            "petj",
            left,
            lambda uda: EqualityThresholdQuery(uda, threshold),
            shared_threshold=threshold if self._inverted() else None,
        )

    def pej_top_k(self, left: UncertainRelation, k: int) -> JoinResult:
        """Block PEJ-top-k; same contract as
        :func:`repro.core.joins.pej_top_k`."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        _join_begin("pej_top_k", k=k)
        return self._run(
            "pej_top_k",
            left,
            lambda uda: EqualityTopKQuery(uda, k),
            heap=BoundedPairHeap(k),
        )

    def dstj(
        self,
        left: UncertainRelation,
        threshold: float,
        divergence: str = "l1",
    ) -> JoinResult:
        """Block DSTJ; same contract as :func:`repro.core.joins.dstj`."""
        if threshold < 0.0:
            raise QueryError(
                f"DSTJ threshold must be >= 0, got {threshold}"
            )
        _join_begin("dstj", threshold=threshold)
        return self._run(
            "dstj",
            left,
            lambda uda: SimilarityThresholdQuery(uda, threshold, divergence),
        )

    # -- internals ----------------------------------------------------------

    def _inverted(self) -> bool:
        return isinstance(self.inner, ProbabilisticInvertedIndex)

    def _fresh_pool(self) -> None:
        if self.pool_size is None:
            return
        disk = getattr(self.inner, "disk", None)
        if disk is not None:
            self.inner.pool = BufferPool(disk, self.pool_size)

    def _execute(self, query, tau_floor: float = 0.0):
        if self.right_index is None:
            return self.right.execute(query)  # the naive scan: no bounds
        return self.right_index.execute(
            query, strategy=self.strategy, tau_floor=tau_floor
        )

    def _run(
        self,
        join_kind: str,
        left: UncertainRelation,
        make_query,
        *,
        heap: BoundedPairHeap | None = None,
        shared_threshold: float | None = None,
    ) -> JoinResult:
        """Probe ``left`` block by block (each on a fresh pool when
        ``pool_size`` is set).

        ``heap`` (top-k) collects the pairs and feeds the adaptive
        floor; ``shared_threshold`` (PETJ over the inverted index)
        scores blocks of two or more tuples by one shared scan.
        """
        outer = [(tid, left.uda_of(tid)) for tid in left.tids()]
        stats = QueryStats()
        pairs: list[JoinPair] = []
        for ordinal, start in enumerate(range(0, len(outer), self.block_size)):
            block = outer[start : start + self.block_size]
            self._fresh_pool()
            if shared_threshold is not None and len(block) > 1:
                pairs.extend(
                    self._petj_block_shared(
                        ordinal, block, shared_threshold, stats
                    )
                )
            else:
                pairs.extend(
                    self._probe_block(
                        join_kind, ordinal, block, stats, make_query, heap=heap
                    )
                )
        pairs = heap.sorted_pairs() if heap is not None else sorted(pairs)
        _join_end(join_kind, pairs=len(pairs), probes=len(outer))
        return JoinResult(pairs, stats, len(outer))

    def _probe_block(
        self,
        join_kind: str,
        ordinal: int,
        block: list,
        stats: QueryStats,
        make_query,
        *,
        heap: BoundedPairHeap | None = None,
    ) -> list[JoinPair]:
        """Grouped per-probe execution of one block.

        Probes run in shared-item order against the block's pool, with
        shared head pages pinned and random-access decodes memoized.
        When ``heap`` is given (top-k), matches feed the heap and the
        adaptive ``tau_floor`` is propagated into each probe.
        """
        queries = [make_query(uda) for _, uda in block]
        # At block size 1 each probe is its own block and goes
        # unbracketed, so it traces exactly like the per-probe join.
        bracketed = self.block_size > 1
        if bracketed:
            begin_fields: dict = {"mode": "probe"}
            if self.strategy is not None:
                begin_fields["strategy"] = self.strategy
            _block_begin(join_kind, ordinal, len(block), **begin_fields)
        if self._inverted() and len(block) > 1:
            order, counts = plan_shared_order(queries, self.inner.domain_size)
            scope = self.inner.shared_scan()
        else:
            order = list(range(len(block)))
            counts = None
            scope = nullcontext()
        pairs: list[JoinPair] = []
        produced = 0
        pinned: list[int] = []
        try:
            with scope:
                if counts is not None and self.strategy != "row_pruning":
                    pinned = prefetch_shared_heads(
                        self.inner,
                        self.inner.pool,
                        counts,
                        pin_reserve=self.pin_reserve,
                        event_kind="join.shared_page",
                        count_field="probes",
                    )
                for position in order:
                    left_tid, _ = block[position]
                    _join_probe(left_tid)
                    floor = (
                        heap.kth_score()
                        if heap is not None
                        and self.adaptive_tau
                        and self.right_index is not None
                        else 0.0
                    )
                    if floor > 0.0:
                        _tau_raised(left_tid, floor)
                    result = self._execute(queries[position], floor)
                    stats.merge(result.stats)
                    for match in result:
                        pair = JoinPair(
                            left_tid=left_tid,
                            right_tid=match.tid,
                            score=match.score,
                        )
                        produced += 1
                        if heap is not None:
                            heap.push(pair)
                        else:
                            pairs.append(pair)
        finally:
            for page_id in pinned:
                self.inner.pool.unpin_page(page_id)
        if bracketed:
            _block_end(join_kind, ordinal, produced, len(pinned))
        return pairs

    def _petj_block_shared(
        self, ordinal: int, block: list, threshold: float, stats: QueryStats
    ) -> list[JoinPair]:
        """Score a whole PETJ block from one pass over its posting lists.

        Every posting list touched by the block is read in full exactly
        once; each (outer row, inner tuple) score is the ``fsum`` of the
        same ``q_prob * s_prob`` product multiset a per-probe
        verification would sum, so scores — and therefore the pair set
        under ``score >= threshold`` — are bit-identical to per-probe
        execution.  No random accesses are issued.
        """
        index = self.inner
        begin_fields: dict = {"mode": "shared-scan"}
        if self.strategy is not None:
            begin_fields["strategy"] = self.strategy
        _block_begin("petj", ordinal, len(block), **begin_fields)
        item_rows: dict[int, list[tuple[int, float]]] = {}
        for row, (left_tid, uda) in enumerate(block):
            _join_probe(left_tid)
            for item, q_prob in uda.pairs():
                item_rows.setdefault(item, []).append((row, q_prob))
        row_runs: list[int] = []
        tid_runs: list = []
        weighted_runs: list = []
        for item in sorted(item_rows):
            posting_list = index.posting_list(item)
            if posting_list is None:
                continue
            stats.nodes_visited += 1
            tids, probs = posting_list.read_all()
            stats.entries_scanned += len(tids)
            for row, q_prob in item_rows[item]:
                row_runs.append(row)
                tid_runs.append(tids)
                weighted_runs.append(q_prob * probs)
        rows, right_tids, scores = kernels.block_scores(
            row_runs, tid_runs, weighted_runs
        )
        triples = zip(rows.tolist(), right_tids.tolist(), scores.tolist())
        pairs: list[JoinPair] = []
        scored = 0
        for row, right_tid, score in triples:
            scored += 1
            if score >= threshold:
                pairs.append(
                    JoinPair(
                        left_tid=block[row][0],
                        right_tid=right_tid,
                        score=score,
                    )
                )
        stats.candidates_examined += scored
        _block_end("petj", ordinal, len(pairs), 0)
        return pairs

