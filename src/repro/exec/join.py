"""Block rank-join engine: shared-scan probing with adaptive thresholds.

The index-nested-loop joins in :mod:`repro.core.joins` issue one probe
per outer tuple, each against whatever buffer pool is installed on the
inner index.  That reproduces the paper's protocol faithfully but wastes
physical work under real workloads: outer tuples drawn from the same
distribution touch the same posting lists over and over, and a top-k
join learns a global score bound that the per-probe loop never exploits.

:class:`BlockJoinExecutor` partitions the outer relation into blocks of
``block_size`` tuples (``--join-block`` / ``REPRO_JOIN_BLOCK``) and adds
three composable optimisations, each guarded so that **block size 1
with no pool override reproduces the per-probe join bit-for-bit** — it
literally delegates to :mod:`repro.core.joins`:

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
  ``tau_floor``, so Lemma 1 early stops fire against the *join-wide*
  threshold instead of each probe's local one.  Probes that ran with a
  raised bound are traced as ``join.tau_raised``.  Exactness: the floor
  only ever rises toward the final global k-th score, and any match it
  suppresses scores strictly below that floor, so it can never displace
  a retained pair — see ``docs/joins.md`` for the full argument.

:func:`parallel_join` partitions the outer side into contiguous chunks
and runs one :class:`BlockJoinExecutor` per worker process (each worker
rebuilds the inner index, so pools are per-worker fresh, mirroring
:mod:`repro.bench.parallel`), merging chunk results in submission order
before a final total-order sort.  Workers do not emit trace records;
only the parent's ``join.begin`` / ``join.end`` bracket survives.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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
    dstj as _legacy_dstj,
    pej_top_k as _legacy_pej_top_k,
    petj as _legacy_petj,
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

#: Join kinds :meth:`BlockJoinExecutor.run_outer` dispatches on.
JOIN_KINDS = ("petj", "pej_top_k", "dstj")

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


def _materialize_outer(left: UncertainRelation) -> list:
    return [(tid, left.uda_of(tid)) for tid in left.tids()]


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
        if self._legacy():
            return _legacy_petj(
                left, self.right, threshold, right_index=self.right_index
            )
        _join_begin("petj", threshold=threshold)
        pairs, stats, probes = self.run_outer(
            "petj", _materialize_outer(left), threshold=threshold
        )
        _join_end("petj", pairs=len(pairs), probes=probes)
        return JoinResult(pairs, stats, probes)

    def pej_top_k(self, left: UncertainRelation, k: int) -> JoinResult:
        """Block PEJ-top-k; same contract as
        :func:`repro.core.joins.pej_top_k`."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if self._legacy():
            return _legacy_pej_top_k(
                left, self.right, k, right_index=self.right_index
            )
        _join_begin("pej_top_k", k=k)
        pairs, stats, probes = self.run_outer(
            "pej_top_k", _materialize_outer(left), k=k
        )
        _join_end("pej_top_k", pairs=len(pairs), probes=probes)
        return JoinResult(pairs, stats, probes)

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
        if self._legacy():
            return _legacy_dstj(
                left,
                self.right,
                threshold,
                divergence=divergence,
                right_index=self.right_index,
            )
        _join_begin("dstj", threshold=threshold)
        pairs, stats, probes = self.run_outer(
            "dstj",
            _materialize_outer(left),
            threshold=threshold,
            divergence=divergence,
        )
        _join_end("dstj", pairs=len(pairs), probes=probes)
        return JoinResult(pairs, stats, probes)

    def run_outer(
        self,
        kind: str,
        outer: list,
        *,
        threshold: float | None = None,
        k: int | None = None,
        divergence: str = "l1",
    ) -> tuple[list[JoinPair], QueryStats, int]:
        """Engine entry on an explicit ``(tid, uda)`` outer list.

        Parallel workers call this directly with their chunk (chunk tids
        are the original outer tids, which a relation's 0-based
        ``tids()`` could not express).  Returns finalized pairs (sorted;
        top-k truncated), merged stats, and the probe count — without
        the ``join.begin`` / ``join.end`` bracket the public methods
        add.
        """
        if kind == "petj":
            if threshold is None:
                raise QueryError("petj requires a threshold")
            return self._run_petj(outer, threshold)
        if kind == "pej_top_k":
            if k is None:
                raise QueryError("pej_top_k requires k")
            return self._run_top_k(outer, k)
        if kind == "dstj":
            if threshold is None:
                raise QueryError("dstj requires a threshold")
            return self._run_dstj(outer, threshold, divergence)
        raise QueryError(f"unknown join kind {kind!r}")

    # -- internals ----------------------------------------------------------

    def _legacy(self) -> bool:
        """True when the configuration is exactly the per-probe join."""
        return (
            self.block_size == 1
            and self.pool_size is None
            and not self.adaptive_tau
        )

    def _inverted(self) -> bool:
        return isinstance(self.inner, ProbabilisticInvertedIndex)

    def _blocks(self, outer: list):
        for start in range(0, len(outer), self.block_size):
            yield outer[start : start + self.block_size]

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

    def _run_petj(self, outer, threshold):
        stats = QueryStats()
        pairs: list[JoinPair] = []
        probes = 0
        shared = self._inverted()
        for ordinal, block in enumerate(self._blocks(outer)):
            self._fresh_pool()
            if shared and len(block) > 1:
                block_pairs = self._petj_block_shared(
                    ordinal, block, threshold, stats
                )
            else:
                block_pairs = self._probe_block(
                    "petj",
                    ordinal,
                    block,
                    stats,
                    lambda uda: EqualityThresholdQuery(uda, threshold),
                )
            pairs.extend(block_pairs)
            probes += len(block)
        return sorted(pairs), stats, probes

    def _run_top_k(self, outer, k):
        stats = QueryStats()
        heap = BoundedPairHeap(k)
        probes = 0
        for ordinal, block in enumerate(self._blocks(outer)):
            self._fresh_pool()
            self._probe_block(
                "pej_top_k",
                ordinal,
                block,
                stats,
                lambda uda: EqualityTopKQuery(uda, k),
                heap=heap,
            )
            probes += len(block)
        return heap.sorted_pairs(), stats, probes

    def _run_dstj(self, outer, threshold, divergence):
        stats = QueryStats()
        pairs: list[JoinPair] = []
        probes = 0
        for ordinal, block in enumerate(self._blocks(outer)):
            self._fresh_pool()
            pairs.extend(
                self._probe_block(
                    "dstj",
                    ordinal,
                    block,
                    stats,
                    lambda uda: SimilarityThresholdQuery(
                        uda, threshold, divergence
                    ),
                )
            )
            probes += len(block)
        return sorted(pairs), stats, probes

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
        inverted = self._inverted()
        begin_fields: dict = {"mode": "probe"}
        if self.strategy is not None:
            begin_fields["strategy"] = self.strategy
        _block_begin(join_kind, ordinal, len(block), **begin_fields)
        grouped = inverted and len(block) > 1
        if grouped:
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
                        if heap is not None and inverted and self.adaptive_tau
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


def block_join(
    kind: str,
    left: UncertainRelation,
    right: UncertainRelation,
    *,
    right_index=None,
    threshold: float | None = None,
    k: int | None = None,
    divergence: str = "l1",
    strategy: str | None = None,
    block_size: int | None = None,
    pool_size: int | None = None,
    pin_reserve: int = DEFAULT_PIN_RESERVE,
    adaptive_tau: bool | None = None,
) -> JoinResult:
    """One-shot block join: build an executor and dispatch on ``kind``."""
    executor = BlockJoinExecutor(
        right,
        right_index,
        strategy=strategy,
        block_size=block_size,
        pool_size=pool_size,
        pin_reserve=pin_reserve,
        adaptive_tau=adaptive_tau,
    )
    if kind == "petj":
        if threshold is None:
            raise QueryError("petj requires a threshold")
        return executor.petj(left, threshold)
    if kind == "pej_top_k":
        if k is None:
            raise QueryError("pej_top_k requires k")
        return executor.pej_top_k(left, k)
    if kind == "dstj":
        if threshold is None:
            raise QueryError("dstj requires a threshold")
        return executor.dstj(left, threshold, divergence)
    raise QueryError(f"unknown join kind {kind!r}")


def _partition_outer(outer: list, chunks: int) -> list[list]:
    """Split into at most ``chunks`` contiguous, balanced, non-empty runs."""
    chunks = min(chunks, len(outer))
    size, extra = divmod(len(outer), chunks)
    parts = []
    start = 0
    for i in range(chunks):
        stop = start + size + (1 if i < extra else 0)
        parts.append(outer[start:stop])
        start = stop
    return parts


def _run_join_chunk(
    ctx,
    kind: str,
    chunk: list,
    right: UncertainRelation,
    build_index,
    params: dict,
    pool_size: int | None,
    strategy: str | None,
    pin_reserve: int,
    adaptive_tau: bool | None,
):
    """Worker-process entry: one outer chunk, per-worker fresh index/pools.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.  Every
    ambient setting arrives by value in ``ctx`` (an
    :class:`~repro.exec.context.ExecContext`) — worker processes do not
    inherit the parent's env/overrides under ``spawn`` — so the index
    build and every probe run inside ``ctx.scope()``; the block size is
    the context's ``join_block``.
    """
    with ctx.scope():
        index = build_index(right) if build_index is not None else None
        executor = BlockJoinExecutor(
            right,
            index,
            strategy=strategy,
            pool_size=pool_size,
            pin_reserve=pin_reserve,
            adaptive_tau=adaptive_tau,
        )
        pairs, stats, probes = executor.run_outer(kind, chunk, **params)
    return pairs, stats, probes


def parallel_join(
    kind: str,
    left: UncertainRelation,
    right: UncertainRelation,
    *,
    build_index=None,
    threshold: float | None = None,
    k: int | None = None,
    divergence: str = "l1",
    jobs: int | None = None,
    strategy: str | None = None,
    block_size: int | None = None,
    pool_size: int | None = None,
    pin_reserve: int = DEFAULT_PIN_RESERVE,
    adaptive_tau: bool | None = None,
) -> JoinResult:
    """Run a block join with the outer side partitioned across processes.

    ``build_index`` is a picklable callable ``relation -> index`` (or
    ``None`` for naive inner probes); each worker rebuilds the inner
    index so every chunk gets per-worker fresh pools.  Chunk results
    merge in submission order (stats therefore merge deterministically,
    chunk 0's stop reason winning) and the concatenated pairs get one
    final total-order sort — for top-k, the global top-k is a subset of
    the union of chunk-local top-ks, so truncating the merged sort is
    exact.  Answers are identical to the sequential engine at the same
    block size; only wall-clock changes.  ``jobs`` defaults to
    ``REPRO_JOBS`` / the CPU count, and workers emit no trace records.
    """
    # Imported lazily: repro.bench imports repro.exec at package init,
    # and the context module imports this one for its knob.
    from repro.bench.parallel import resolve_jobs
    from repro.exec.context import ExecContext

    if kind not in JOIN_KINDS:
        raise QueryError(f"unknown join kind {kind!r}")
    params: dict = {}
    begin_fields: dict = {}
    if kind in ("petj", "dstj"):
        if threshold is None:
            raise QueryError(f"{kind} requires a threshold")
        params["threshold"] = threshold
        begin_fields["threshold"] = threshold
        if kind == "dstj":
            params["divergence"] = divergence
    else:
        if k is None:
            raise QueryError("pej_top_k requires k")
        params["k"] = k
        begin_fields["k"] = k
    outer = _materialize_outer(left)
    jobs = resolve_jobs(jobs)
    block = resolve_join_block(block_size)
    _join_begin(kind, **begin_fields)
    if jobs <= 1 or len(outer) <= 1:
        executor = BlockJoinExecutor(
            right,
            build_index(right) if build_index is not None else None,
            strategy=strategy,
            block_size=block,
            pool_size=pool_size,
            pin_reserve=pin_reserve,
            adaptive_tau=adaptive_tau,
        )
        pairs, stats, probes = executor.run_outer(kind, outer, **params)
    else:
        ctx = ExecContext.capture(join_block=block)
        chunks = _partition_outer(outer, jobs)
        merged: list[JoinPair] = []
        stats = QueryStats()
        probes = 0
        with ProcessPoolExecutor(max_workers=len(chunks)) as executor_pool:
            futures = [
                executor_pool.submit(
                    _run_join_chunk,
                    ctx,
                    kind,
                    chunk,
                    right,
                    build_index,
                    params,
                    pool_size,
                    strategy,
                    pin_reserve,
                    adaptive_tau,
                )
                for chunk in chunks
            ]
            for future in futures:
                chunk_pairs, chunk_stats, chunk_probes = future.result()
                merged.extend(chunk_pairs)
                stats.merge(chunk_stats)
                probes += chunk_probes
        pairs = sorted(merged)
        if kind == "pej_top_k":
            del pairs[k:]
    _join_end(kind, pairs=len(pairs), probes=probes)
    return JoinResult(pairs, stats, probes)
