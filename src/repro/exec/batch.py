"""Batched multi-query executor with shared-scan amortization.

The paper's measurement protocol charges every query a fresh buffer pool
(Section 4), so two queries touching the same posting list each pay its
page reads in full.  Under heavy traffic that is the dominant waste: hot
lists are re-read (and CRC-verified, and re-decoded) once per query.
:class:`BatchExecutor` generalizes the protocol from *per-query* to
*per-batch* pools:

* queries are grouped into batches of ``batch_size`` (``--batch`` /
  ``REPRO_BATCH``);
* each batch runs against one fresh pool, so pages fetched by an earlier
  query in the batch are buffer hits for later ones;
* within a batch, queries are ordered so that queries touching the same
  domain elements run back-to-back (their shared pages are still
  resident);
* the head pages (root -> first leaf) of posting lists shared by two or
  more queries are prefetched *pinned* (:meth:`BufferPool.fetch_many`),
  so the guaranteed-shared pages are read once and cannot be evicted
  mid-batch;
* random-access tuple decodes are memoized across the batch
  (:meth:`ProbabilisticInvertedIndex.shared_scan`): a tuple verified by
  one query is served from memory to every later query in the batch.

Each query still executes its ordinary strategy code with its own
:class:`~repro.core.results.QueryStats` — per-query frontier bookkeeping,
Lemma 1 early stops, and answers are *identical* to per-query execution
(enforced by ``tests/exec/test_batch_differential.py``).  Only the
physical reads change: a batch of size 1 degenerates to exactly the
per-query protocol (no reordering, no prefetch, fresh pool per query),
so baseline I/O numbers are reproducible by setting ``--batch 1``.

See ``docs/batch-execution.md`` for the amortization model and why
batched reads may legally drop below the per-query baseline.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.config import int_knob
from repro.core.exceptions import QueryError
from repro.core.queries import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    Query,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
    WindowedEqualityQuery,
)
from repro.core.results import QueryResult
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS
from repro.storage.buffer import DEFAULT_POOL_SIZE, BufferPool

#: Environment variable selecting the default batch size.
BATCH_ENV = "REPRO_BATCH"

#: Frames kept un-pinned for the queries' own working sets when
#: prefetching (see :meth:`BufferPool.fetch_many`'s ``reserve``).
DEFAULT_PIN_RESERVE = 8

#: The batch-size knob: explicit arg > :func:`batch_override` >
#: ``REPRO_BATCH`` > 1 (see :class:`repro.core.config.Knob`).  An unset
#: / empty / ``off`` environment value means batch size 1 — the
#: per-query protocol, which is always the I/O baseline.
BATCH = int_knob(
    BATCH_ENV,
    "batch size",
    minimum=1,
    special={"off": 1, "default": 1},
    default=1,
)
resolve_batch = BATCH.resolve
batch_override = BATCH.override


def touched_items(query: Query, domain_size: int | None = None) -> list[int]:
    """The domain elements whose access paths ``query`` reads.

    Windowed queries expand first (with the executor's domain clamp), so
    the signature reflects the posting lists actually opened.
    """
    if isinstance(query, WindowedEqualityQuery):
        return query.expanded(domain_size).items.tolist()
    if isinstance(
        query,
        (
            EqualityQuery,
            EqualityThresholdQuery,
            EqualityTopKQuery,
            SimilarityThresholdQuery,
            SimilarityTopKQuery,
        ),
    ):
        return query.q.items.tolist()
    raise QueryError(f"unsupported query type {type(query).__name__}")


def plan_shared_order(
    queries: list[Query], domain_size: int | None
) -> tuple[list[int], dict[int, int]]:
    """Execution order and per-item query counts for one batch/block.

    Queries touching the same elements run back-to-back (stable sort by
    touched-item signature, so equal signatures keep their input order);
    the counts drive the shared-list prefetch.  Shared by the batch
    executor and the block rank-join engine.
    """
    signatures = [
        tuple(touched_items(query, domain_size)) for query in queries
    ]
    order = sorted(range(len(queries)), key=lambda i: (signatures[i], i))
    counts: dict[int, int] = {}
    for signature in signatures:
        for item in set(signature):
            counts[item] = counts.get(item, 0) + 1
    return order, counts


def prefetch_shared_heads(
    index,
    pool: BufferPool,
    counts: dict[int, int],
    *,
    pin_reserve: int,
    event_kind: str = "batch.shared_page",
    count_field: str = "queries",
) -> list[int]:
    """Pin the head pages of posting lists shared by >= 2 queries.

    Only the root -> first-leaf path is pinned — the pages *every*
    strategy touching the list is guaranteed to read — so the hint can
    only save reads, never add speculative ones that a per-query run
    would not have performed.  Emits one ``event_kind`` record (and
    counter) per pinned page, with the sharer count under
    ``count_field`` (``queries`` for batches, ``probes`` for join
    blocks).  Returns the pinned page ids; the caller must unpin them.
    """
    shared = sorted(
        (item for item, count in counts.items() if count >= 2),
        key=lambda item: (-counts[item], item),
    )
    pinned: list[int] = []
    sharers_of_page: dict[int, int] = {}
    for item in shared:
        posting_list = index.posting_list(item)
        if posting_list is None:
            continue
        page_ids = posting_list.head_page_ids()
        got = pool.fetch_many(page_ids, pin=True, reserve=pin_reserve)
        pinned.extend(got)
        for page_id in got:
            sharers_of_page[page_id] = counts[item]
        if len(got) < len(page_ids):
            break  # pin budget exhausted; stop hinting
    tracer = _trace.ACTIVE
    for page_id in pinned:
        METRICS.inc(event_kind)
        if tracer is not None:
            tracer.event(
                event_kind,
                page_id=page_id,
                **{count_field: sharers_of_page[page_id]},
            )
    return pinned


class BatchExecutor:
    """Execute a workload in batches over shared per-batch buffer pools.

    Parameters
    ----------
    index:
        A :class:`ProbabilisticInvertedIndex` or
        :class:`~repro.pdrtree.tree.PDRTree`.
    strategy:
        Inverted-index search strategy (ignored must-be-None for the
        PDR-tree, mirroring :class:`~repro.bench.harness.IndexUnderTest`).
    pool_size:
        Frames per batch pool (the paper's per-query allocation, now
        amortized over the batch).
    batch_size:
        Queries per pool; ``None`` consults :func:`resolve_batch`.
    pin_reserve:
        Frames the prefetch must leave un-pinned.
    """

    def __init__(
        self,
        index,
        *,
        strategy: str | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        batch_size: int | None = None,
        pin_reserve: int = DEFAULT_PIN_RESERVE,
    ) -> None:
        if strategy is not None and not isinstance(
            index, ProbabilisticInvertedIndex
        ):
            raise QueryError("only the inverted index takes a search strategy")
        if pin_reserve < 0:
            raise QueryError(f"pin_reserve must be >= 0, got {pin_reserve}")
        self.index = index
        self.strategy = strategy
        self.pool_size = pool_size
        self.batch_size = resolve_batch(batch_size)
        self.pin_reserve = pin_reserve

    # -- public API ---------------------------------------------------------

    def run(self, queries: list[Query]) -> list[QueryResult]:
        """Execute the workload; results align with the input order."""
        results: list[QueryResult] = []
        for start in range(0, len(queries), self.batch_size):
            results.extend(self._run_batch(queries[start : start + self.batch_size]))
        return results

    # -- internals ----------------------------------------------------------

    def _execute(self, query: Query) -> QueryResult:
        return self.index.execute(query, strategy=self.strategy)

    def _structure(self) -> str:
        return (
            "inv-index"
            if isinstance(self.index, ProbabilisticInvertedIndex)
            else "pdr-tree"
        )

    def _domain_size(self) -> int | None:
        return getattr(self.index, "domain_size", None)

    def _plan(self, queries: list[Query]) -> tuple[list[int], dict[int, int]]:
        """Execution order and per-item query counts for one batch."""
        return plan_shared_order(queries, self._domain_size())

    def _prefetch_shared(
        self, pool: BufferPool, counts: dict[int, int], queries: list[Query]
    ) -> list[int]:
        """Pin shared posting-list head pages (see
        :func:`prefetch_shared_heads`).  Row pruning is the exception:
        it may skip whole lists, so no prefetch is issued for it.
        """
        pinned = self._prefetch_sketch(pool, queries)
        if not isinstance(self.index, ProbabilisticInvertedIndex):
            return pinned
        if self.strategy == "row_pruning":
            return pinned
        return pinned + prefetch_shared_heads(
            self.index, pool, counts, pin_reserve=self.pin_reserve
        )

    def _prefetch_sketch(
        self, pool: BufferPool, queries: list[Query]
    ) -> list[int]:
        """Pin the sketch pages when >= 2 batch members will scan them.

        In exact mode every similarity query scans the whole projection
        heap, so with two or more similarity queries in the batch those
        pages are guaranteed shared — the same only-certain-reads rule
        the posting-head prefetch follows.
        """
        from repro.sketch import resolve_sketch

        sketch = getattr(self.index, "sketch", None)
        if sketch is None or resolve_sketch() != "exact":
            return []
        similar = sum(
            isinstance(
                q, (SimilarityThresholdQuery, SimilarityTopKQuery)
            )
            for q in queries
        )
        if similar < 2:
            return []
        pinned = pool.fetch_many(
            sketch.page_ids(), pin=True, reserve=self.pin_reserve
        )
        tracer = _trace.ACTIVE
        for page_id in pinned:
            METRICS.inc("batch.shared_page")
            if tracer is not None:
                tracer.event(
                    "batch.shared_page", page_id=page_id, queries=similar
                )
        return pinned

    def _run_batch(self, queries: list[Query]) -> list[QueryResult]:
        pool = BufferPool(self.index.disk, self.pool_size)
        self.index.pool = pool
        tracer = _trace.ACTIVE
        if tracer is not None:
            fields = {}
            if self.strategy is not None:
                fields["strategy"] = self.strategy
            tracer.event(
                "batch.begin",
                size=len(queries),
                structure=self._structure(),
                **fields,
            )
        pinned: list[int] = []
        results: list[QueryResult | None] = [None] * len(queries)
        # Tuple decodes are memoized across the batch's queries (never at
        # batch size 1, which must reproduce per-query physical work).
        scope = (
            self.index.shared_scan()
            if len(queries) > 1
            and isinstance(self.index, ProbabilisticInvertedIndex)
            else nullcontext()
        )
        try:
            with scope:
                if len(queries) > 1:
                    order, counts = self._plan(queries)
                    pinned = self._prefetch_shared(pool, counts, queries)
                else:
                    order = list(range(len(queries)))
                for position in order:
                    METRICS.inc("batch.query")
                    if tracer is not None:
                        tracer.event(
                            "batch.query",
                            position=position,
                            query=type(queries[position]).__name__,
                        )
                    results[position] = self._execute(queries[position])
        finally:
            for page_id in pinned:
                pool.unpin_page(page_id)
        if tracer is not None:
            tracer.event(
                "batch.end", size=len(queries), shared_pages=len(pinned)
            )
        return results
