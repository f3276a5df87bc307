"""Serving-mode execution: the measure/serve protocol split.

The paper's measurement protocol (Section 4) charges every query a
*fresh* 100-frame buffer pool, which is exactly right for reproducing
its I/O figures and exactly wrong for serving traffic: all cache warmth
is discarded between requests, and pool construction sits on the request
path.  :class:`ServingExecutor` makes the protocol an explicit mode:

``mode="measure"``
    Unchanged paper protocol — a fresh pool per query, reads counted
    from pool construction.  Byte-identical to
    :func:`repro.bench.harness.measure_query` and to every committed
    ``BENCH_*.json`` golden; the ``compare_io.py`` regression gate binds
    to this mode only.

``mode="serve"``
    One long-lived shared :class:`~repro.storage.buffer.BufferPool`
    (with its version-keyed decoded-node cache) reused across every
    request, plus a long-lived tuple-decode cache: candidate
    verification decodes the same stored tuples query after query, so
    the decoded sparse arrays are kept across requests (installed on
    the index only while a request executes, validated against the
    index's mutation stamp, and never visible to measurement-mode
    runs borrowing the same index).  Per-request I/O is attributed with the snapshot/delta
    discipline — a :class:`~repro.storage.stats.IOStatistics` /
    tag-counter delta around the request — instead of "reads since the
    pool was built", which is meaningless for a shared pool.  Answers
    (tids, scores, order) are *identical* to measurement mode: pool
    warmth changes which fetches hit, never which pages are logically
    requested or how strategies decide to stop (their Lemma 1 / Lemma 2
    bounds depend on probabilities, not on physical I/O).  Only the read
    *counts* differ, and monotonically: a warm fetch misses only if the
    same cold fetch would have missed, so per-request posting reads are
    <= the cold-pool reads whenever the serving pool is at least as
    large as the per-query pool and the request's working set fits
    (asserted per query by ``benchmarks/bench_abl_serving.py``).

:meth:`ServingExecutor.execute` is the one route by which a served
request reaches the index: :mod:`repro.serve` calls it once per
request.  :meth:`ServingExecutor.execute_batch` is the in-process loop
over it, so each member's reads are attributed exactly as if it had
arrived alone.

See ``docs/serving.md`` for the full model and
``docs/io-model.md`` for why goldens bind in measurement mode only.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.exceptions import QueryError, ReproError
from repro.core.queries import Query
from repro.core.results import QueryResult
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.invindex.tuple_cache import (
    DEFAULT_TUPLE_CACHE_ENTRIES,
    GenerationalTupleCache,
)
from repro.storage.buffer import DEFAULT_POOL_SIZE, BufferPool
from repro.storage.stats import MeasureScope

#: The two execution protocols.
MODES = ("measure", "serve")

#: Default frame budget for a long-lived serving pool.  Deliberately
#: larger than the paper's 100-frame per-query allocation: a serving
#: pool is shared by every request, and the warm<=cold read bound holds
#: per-request when the pool comfortably contains each request's working
#: set alongside the hot residue.
DEFAULT_SERVE_POOL_SIZE = 4096

@dataclass
class ServedResult:
    """One request's answer plus its attributed physical work."""

    #: The answer — identical across modes for the same query.
    result: QueryResult
    #: Physical page reads this request incurred (stats delta).
    reads: int
    #: Per-tag read breakdown ("postings", "tuples", "pdr-node", ...).
    reads_by_tag: dict[str, int] = field(default_factory=dict)
    #: Buffer-pool fetch counters over the request (warmth telemetry).
    pool_hits: int = 0
    pool_misses: int = 0
    #: The protocol the request ran under ("measure" or "serve").
    mode: str = "serve"

    def __len__(self) -> int:
        return len(self.result)


class ServingExecutor:
    """Execute queries under an explicit measure/serve protocol.

    Parameters
    ----------
    index:
        A :class:`~repro.invindex.index.ProbabilisticInvertedIndex` or
        :class:`~repro.pdrtree.tree.PDRTree`.
    strategy:
        Inverted-index search strategy (must be ``None`` for the
        PDR-tree).
    mode:
        ``"measure"`` (fresh pool per query, the paper's protocol) or
        ``"serve"`` (one shared warm pool for the executor's lifetime).
    pool_size:
        Frames: per-query pools in measure mode (default 100, the
        paper's allocation), the one long-lived pool in serve mode
        (default :data:`DEFAULT_SERVE_POOL_SIZE`).
    tuple_cache_entries:
        Capacity of the cross-request tuple-decode cache (serve mode;
        default :data:`DEFAULT_TUPLE_CACHE_ENTRIES`).
    """

    def __init__(
        self,
        index,
        *,
        strategy: str | None = None,
        mode: str = "serve",
        pool_size: int | None = None,
        tuple_cache_entries: int | None = None,
    ) -> None:
        if mode not in MODES:
            raise QueryError(f"mode must be one of {MODES}, got {mode!r}")
        if strategy is not None and not isinstance(
            index, ProbabilisticInvertedIndex
        ):
            raise QueryError("only the inverted index takes a search strategy")
        self.index = index
        self.strategy = strategy
        self.mode = mode
        if pool_size is None:
            pool_size = (
                DEFAULT_POOL_SIZE if mode == "measure" else DEFAULT_SERVE_POOL_SIZE
            )
        if pool_size < 1:
            raise QueryError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        #: The long-lived warm pool (serve mode only; None in measure).
        self.pool: BufferPool | None = None
        #: Decoded tuples kept across requests (serve mode, indexes with
        #: :meth:`~repro.invindex.index.ProbabilisticInvertedIndex.shared_scan`).
        #: Installed on the index only *while this executor executes*, so
        #: a measurement borrowing the same index stays byte-identical.
        self.tuple_cache: GenerationalTupleCache | None = None
        self._mutation_stamp: int | None = None
        #: Serve-mode index with ``shared_scan`` but no ``mutations``
        #: stamp: without a stamp a cross-request cache can never be
        #: invalidated, so such an index gets a *per-request* decode memo
        #: only (see :meth:`_decode_scope`).
        self._stampless_scan = False
        if mode == "serve":
            self.pool = BufferPool(index.disk, pool_size)
            index.pool = self.pool
            if hasattr(index, "shared_scan"):
                if hasattr(index, "mutations"):
                    self.tuple_cache = GenerationalTupleCache(
                        DEFAULT_TUPLE_CACHE_ENTRIES
                        if tuple_cache_entries is None
                        else tuple_cache_entries
                    )
                    self._mutation_stamp = index.mutations
                else:
                    self._stampless_scan = True

    def _decode_scope(self):
        """The tuple-decode cache scope for one request (serve mode).

        Validates the cache against the index's mutation stamp first: a
        mutation this executor did not apply itself (``index.insert``
        called directly, a build, WAL replay) clears every entry, so a
        tid-level stale read is never possible.  Mutations that go
        through :meth:`apply_mutation` keep the stamp in step and
        invalidate by tid instead.  Capacity needs no
        guard here — :class:`GenerationalTupleCache` bounds itself by
        dropping its oldest generation, so crossing an epoch boundary
        costs only the entries nothing touched for a full generation,
        never the warm set.

        An index without a ``mutations`` stamp offers nothing to
        validate against, so it never touches the cross-request cache:
        each request decodes into a fresh memo that dies with the
        request.  (The old behavior — treating a missing stamp as the
        constant ``None`` — made the staleness check vacuously pass
        forever, serving deleted tuples from cache.)
        """
        if self.tuple_cache is None:
            if self._stampless_scan:
                return self.index.shared_scan({})
            return nullcontext()
        stamp = self.index.mutations
        if stamp != self._mutation_stamp:
            self.tuple_cache.clear()
            self._mutation_stamp = stamp
        return self.index.shared_scan(self.tuple_cache)

    def _attach_warm_pool(self) -> None:
        """Re-install the warm pool if a foreign one replaced it (serve
        mode; e.g. a measurement harness borrowed the index)."""
        if self.pool is not None and self.index.pool is not self.pool:
            self.index.pool = self.pool

    # -- single requests -----------------------------------------------------

    def execute(
        self,
        query: Query,
        tau_floor: float = 0.0,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> ServedResult:
        """Answer one request, attributing its physical reads.

        ``tau_floor`` elevates a top-k query's pruning threshold (the
        shard coordinator's round protocol — docs/sharding.md); the
        indexes validate that it is only supplied for top-k descriptors.
        ``sketch`` / ``div_ceiling`` are the similarity-query analogs
        (docs/sketch-prefilter.md), likewise validated by the indexes.
        In serve mode sketch pages read by exact-mode prefilters stay
        hot in the shared warm pool like every other page.
        """
        if self.mode == "measure":
            # The paper's protocol, verbatim: swap in a fresh pool, then
            # count reads.  Pool construction is setup, not query cost.
            self.index.pool = BufferPool(self.index.disk, self.pool_size)
        else:
            self._attach_warm_pool()
        with MeasureScope(self.index.disk, pool=self.index.pool) as scope:
            with self._decode_scope():
                result = self.index.execute(
                    query,
                    strategy=self.strategy,
                    tau_floor=tau_floor,
                    sketch=sketch,
                    div_ceiling=div_ceiling,
                )
        return ServedResult(
            result=result,
            reads=scope.reads,
            reads_by_tag=scope.reads_by_tag,
            pool_hits=scope.pool_hits,
            pool_misses=scope.pool_misses,
            mode=self.mode,
        )

    # -- groups of requests --------------------------------------------------

    def execute_batch(
        self,
        queries: Sequence[Query],
        bounds: Sequence[dict] | None = None,
    ) -> list[ServedResult | ReproError]:
        """Answer a group of requests, one :meth:`execute` each.

        ``bounds`` optionally aligns with ``queries``: each entry holds
        that request's own pushed-down :meth:`execute` keywords
        (``tau_floor`` / ``sketch`` / ``div_ceiling``), so requests with
        different bounds share a group and each keeps its own.  Results
        align with the input order.  A member the index refuses (or
        whose read fails) does not take its neighbours down: its slot
        holds the :class:`ReproError` instead of raising it.
        """
        if bounds is None:
            bounds = [{}] * len(queries)
        served: list[ServedResult | ReproError] = []
        for query, pushed in zip(queries, bounds, strict=True):
            try:
                served.append(self.execute(query, **pushed))
            except ReproError as exc:
                served.append(exc)
        return served

    # -- mutations -----------------------------------------------------------

    def apply_mutation(self, op: str, *, tid: int | None = None, uda=None) -> int:
        """Apply one mutation to the served index; returns the new stamp.

        ``op`` is ``"insert"`` (needs ``tid`` and ``uda``), ``"delete"``
        (needs ``tid``), or ``"compact"``.  The mutation runs against
        the warm pool, so its dirty pages join the shared working set.
        The server executes mutations on the same single worker thread
        as queries, one request at a time, which is what makes a
        mutation atomic from every reader's point of view.

        The tuple-decode cache is invalidated *by tid*: a decoded tuple
        depends only on its own stored pairs, so an insert or delete
        discards that one entry (on insert too, so a re-used tid can
        never serve its old pairs) and a compaction, which rewrites
        pages but no pairs, discards nothing.  That is only sound when
        the cache was in step with the index beforehand and the
        operation completed; otherwise the stamp is left behind and the
        next request's :meth:`_decode_scope` clears the whole cache.
        """
        self._attach_warm_pool()
        in_step = (
            self.tuple_cache is not None
            and self.index.mutations == self._mutation_stamp
        )
        if op == "insert":
            if tid is None or uda is None:
                raise QueryError("insert needs tid and uda")
            self.index.insert(tid, uda)
        elif op == "delete":
            if tid is None:
                raise QueryError("delete needs tid")
            self.index.delete(tid)
        elif op == "compact":
            if not hasattr(self.index, "compact"):
                raise QueryError(
                    f"{type(self.index).__name__} does not support compaction"
                )
            self.index.compact()
        else:
            raise QueryError(f"unknown mutation op {op!r}")
        if in_step:
            if op != "compact":
                self.tuple_cache.discard(tid)
            self._mutation_stamp = self.index.mutations
        return int(getattr(self.index, "mutations", 0))

    # -- warm-pool telemetry -------------------------------------------------

    def hit_ratio(self) -> float:
        """The warm pool's hit ratio over the current reporting window."""
        return self.pool.hit_ratio if self.pool is not None else 0.0

    def tuple_cache_stats(self) -> dict[str, int]:
        """Residency and lifetime hit / miss counts of the tuple-decode cache."""
        cache = self.tuple_cache
        if cache is None:
            return {"entries": 0, "hits": 0, "misses": 0}
        return {"entries": len(cache), "hits": cache.hits, "misses": cache.misses}

    def reset_window(self) -> None:
        """Start a fresh telemetry window (serve mode; no-op in measure).

        Delegates to :meth:`BufferPool.reset_counters
        <repro.storage.buffer.BufferPool.reset_counters>` — resident
        pages and pin state are untouched, so warmth survives the reset.
        """
        if self.pool is not None:
            self.pool.reset_counters()

    def check_quiesced(self) -> None:
        """Assert no pins survive between requests (serving hygiene)."""
        if self.pool is not None:
            pinned = self.pool.pinned_page_ids()
            assert pinned == [], f"pages still pinned at quiesce: {pinned}"
            self.pool.check_invariants()
