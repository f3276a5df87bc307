"""Measurement harness: disk I/Os per query under per-query buffering.

Reproduces the paper's measurement protocol (Section 4): every query runs
against a freshly allocated clock-replacement buffer pool of 100 blocks,
and the reported number is the physical page *reads* the query incurs
(writes never happen during read-only queries).

An :class:`IndexUnderTest` adapts the two index structures (and the naive
full-scan baseline) to one uniform "execute a query descriptor" surface so
experiments can sweep structure x strategy x query kind.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import mean

from repro.core.exceptions import QueryError
from repro.core.queries import Query
from repro.core.results import QueryResult
from repro.datagen.workload import CalibratedQuery
from repro.invindex.index import ProbabilisticInvertedIndex
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS, hit_rate
from repro.pdrtree.tree import PDRTree
from repro.storage.buffer import DEFAULT_POOL_SIZE, BufferPool
from repro.storage.stats import MeasureScope


@dataclass
class IndexUnderTest:
    """A measurable index: structure plus fixed execution options."""

    name: str
    index: ProbabilisticInvertedIndex | PDRTree
    strategy: str | None = None  # inverted-index search strategy

    def execute(self, query: Query) -> QueryResult:
        return self.index.execute(query, strategy=self.strategy)


@dataclass
class Measurement:
    """One measured query execution."""

    reads: int
    result_size: int
    #: Physical reads attributed per component ("postings", "tuples",
    #: "pdr-node", ...) — the breakdown behind the total.
    reads_by_tag: dict[str, int] = field(default_factory=dict)
    #: Buffer-pool fetch counters for the query's fresh pool, sourced from
    #: the :data:`repro.obs.metrics.METRICS` delta over the execution.
    #: Wall-clock telemetry only; the I/O numbers above are the paper's
    #: metric.
    pool_hits: int = 0
    pool_misses: int = 0
    #: Decoded-object cache counters (see repro.storage.cache).
    decoded_hits: int = 0
    decoded_misses: int = 0
    #: Fault-tolerance telemetry (zero unless REPRO_FAULT_* injection is
    #: active; failed read attempts are never counted in ``reads``).
    checksum_failures: int = 0
    retries: int = 0
    faults_injected: int = 0
    #: The full metrics delta of this query execution — the per-kind
    #: event histogram the trace of the same execution would show.
    metrics: dict[str, int] = field(default_factory=dict)
    #: Why the executor stopped consuming input (None for executors
    #: without an early-stop decision; see ``QueryStats.stop_reason``).
    stop_reason: str | None = None

    @property
    def pool_hit_rate(self) -> float:
        """Zero-safe pool hit ratio (0.0 when the query fetched nothing)."""
        return hit_rate(self.pool_hits, self.pool_misses)

    @property
    def decoded_hit_rate(self) -> float:
        """Zero-safe decoded-cache hit ratio (0.0 with no lookups)."""
        return hit_rate(self.decoded_hits, self.decoded_misses)


@dataclass
class SeriesPoint:
    """One x-position of one series: mean I/O over its queries."""

    x: float
    mean_reads: float
    num_queries: int
    mean_result_size: float
    #: Mean per-tag read breakdown over the point's queries.
    mean_reads_by_tag: dict[str, float] = field(default_factory=dict)
    #: Mean cache telemetry (wall-clock side; not part of the I/O model).
    mean_pool_hit_rate: float = 0.0
    mean_decoded_hit_rate: float = 0.0
    #: Fault-tolerance telemetry summed over the point's queries (zero
    #: without injection, so deterministic benchmark fields are unchanged).
    total_checksum_failures: int = 0
    total_retries: int = 0
    total_faults_injected: int = 0
    #: Merged inner-probe work counters for join experiments (empty for
    #: plain select experiments).
    probe_stats: dict[str, int] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """A named set of series, each a list of (x, mean I/O) points."""

    name: str
    x_label: str
    y_label: str = "disk I/Os per query"
    series: dict[str, list[SeriesPoint]] = field(default_factory=dict)

    def add_point(self, series_name: str, point: SeriesPoint) -> None:
        self.series.setdefault(series_name, []).append(point)

    def series_values(self, series_name: str) -> list[float]:
        """Mean-I/O values of one series in x order."""
        points = sorted(self.series[series_name], key=lambda p: p.x)
        return [p.mean_reads for p in points]

    def xs(self) -> list[float]:
        """Sorted union of x positions across series."""
        positions = {
            point.x for points in self.series.values() for point in points
        }
        return sorted(positions)


def _bench_tracing():
    """The installed bench collector, and the tracing scope of a measurement.

    Entering the scope yields the tracer the measurement's own records
    go to (``None``: tracing is off).  An already active tracer is left
    alone; otherwise a ``--trace`` run's collector tracer is activated
    for the measured execution only, so index builds and dataset
    generation (which per-process caches may skip) never appear in the
    trace.
    """
    collector = _trace.BENCH_COLLECTOR
    if (
        _trace.ACTIVE is None
        and collector is not None
        and collector.tracer is not None
    ):
        return collector, _trace.tracing(collector.tracer)
    return collector, nullcontext(_trace.ACTIVE)


def measure_query(
    under_test: IndexUnderTest,
    query: Query,
    pool_size: int = DEFAULT_POOL_SIZE,
) -> Measurement:
    """Run one query with a fresh buffer pool; return its physical reads.

    Observability: the measurement is scoped *after* the pool swap (the
    old pool's flush is setup cost, not query cost) — the
    :data:`~repro.obs.metrics.METRICS` snapshot taken here makes the
    returned :attr:`Measurement.metrics` delta exactly this query's event
    histogram.  Under a benchmark run with ``--trace``, the installed
    :class:`~repro.obs.trace.BenchCollector`'s tracer is activated around
    ``execute`` only (:func:`_bench_tracing`).
    """
    index = under_test.index
    pool = BufferPool(index.disk, pool_size)
    index.pool = pool
    collector, tracing = _bench_tracing()
    with MeasureScope(index.disk, metrics=METRICS) as scope, tracing as emit:
        if emit is not None:
            emit.event(
                "measure.begin",
                index=under_test.name,
                query=type(query).__name__,
                pool_size=pool_size,
                backend=index.disk.backend.name,
            )
        result = under_test.execute(query)
    if emit is not None:
        emit.event(
            "measure.end",
            index=under_test.name,
            reads=scope.reads,
            matches=len(result),
        )
    if collector is not None:
        collector.metrics.merge(scope.metrics)
    return Measurement(
        reads=scope.reads,
        result_size=len(result),
        reads_by_tag=scope.reads_by_tag,
        pool_hits=scope.metrics.get("pool.hit", 0),
        pool_misses=scope.metrics.get("pool.miss", 0),
        decoded_hits=scope.metrics.get("decoded.hit", 0),
        decoded_misses=scope.metrics.get("decoded.miss", 0),
        checksum_failures=scope.stats.checksum_failures,
        retries=pool.retries,
        faults_injected=scope.stats.faults_injected,
        metrics=scope.metrics,
        stop_reason=result.stats.stop_reason,
    )


def measure_point(
    under_test: IndexUnderTest,
    queries: list[CalibratedQuery],
    kind: str,
    x: float,
    pool_size: int = DEFAULT_POOL_SIZE,
    batch_size: int | None = None,
) -> SeriesPoint:
    """Mean I/O of one workload point (one selectivity, one query kind).

    ``kind`` is ``"threshold"`` (PETQ) or ``"topk"`` (PEQ-top-k).

    ``batch_size`` selects the execution protocol (``None`` consults
    ``REPRO_BATCH`` via :func:`repro.exec.resolve_batch`): 1 is the
    paper's per-query regime — fresh pool per query — and larger values
    run the point through :class:`~repro.exec.BatchExecutor`, amortizing
    each batch's pool across its queries (answers identical, reads
    lower; see ``docs/batch-execution.md``).
    """
    from repro.exec import resolve_batch

    if kind not in ("threshold", "topk"):
        raise QueryError(f"kind must be threshold or topk, got {kind!r}")
    query_list: list[Query] = [
        calibrated.threshold_query()
        if kind == "threshold"
        else calibrated.top_k_query()
        for calibrated in queries
    ]
    batch = resolve_batch(batch_size)
    if batch > 1:
        return _measure_point_batched(
            under_test, query_list, x, pool_size, batch
        )
    measurements = []
    for query in query_list:
        measurements.append(measure_query(under_test, query, pool_size))
    tags = sorted({tag for m in measurements for tag in m.reads_by_tag})
    return SeriesPoint(
        x=x,
        mean_reads=mean(m.reads for m in measurements),
        num_queries=len(measurements),
        mean_result_size=mean(m.result_size for m in measurements),
        mean_reads_by_tag={
            tag: mean(m.reads_by_tag.get(tag, 0) for m in measurements)
            for tag in tags
        },
        mean_pool_hit_rate=mean(m.pool_hit_rate for m in measurements),
        mean_decoded_hit_rate=mean(m.decoded_hit_rate for m in measurements),
        total_checksum_failures=sum(m.checksum_failures for m in measurements),
        total_retries=sum(m.retries for m in measurements),
        total_faults_injected=sum(m.faults_injected for m in measurements),
    )


def _measure_point_batched(
    under_test: IndexUnderTest,
    query_list: list[Query],
    x: float,
    pool_size: int,
    batch: int,
) -> SeriesPoint:
    """One workload point through the batch executor.

    The observability scoping mirrors :func:`measure_query`, but around
    the whole point: one METRICS / disk-stats / tag delta covers every
    batch, and per-query read attribution is deliberately not attempted
    (pools are shared within a batch, so a page read "belongs" to the
    whole batch; the point reports the amortized mean).
    """
    from repro.exec import BatchExecutor

    index = under_test.index
    executor = BatchExecutor(
        index,
        strategy=under_test.strategy,
        pool_size=pool_size,
        batch_size=batch,
    )
    collector, tracing = _bench_tracing()
    with MeasureScope(index.disk, metrics=METRICS) as scope, tracing:
        results = executor.run(query_list)
    if collector is not None:
        collector.metrics.merge(scope.metrics)
    n = len(query_list)
    return SeriesPoint(
        x=x,
        mean_reads=scope.reads / n,
        num_queries=n,
        mean_result_size=mean(len(result) for result in results),
        mean_reads_by_tag={
            tag: count / n for tag, count in scope.reads_by_tag.items()
        },
        mean_pool_hit_rate=hit_rate(
            scope.metrics.get("pool.hit", 0), scope.metrics.get("pool.miss", 0)
        ),
        mean_decoded_hit_rate=hit_rate(
            scope.metrics.get("decoded.hit", 0),
            scope.metrics.get("decoded.miss", 0),
        ),
        total_checksum_failures=scope.stats.checksum_failures,
        total_retries=scope.metrics.get("pool.retry", 0),
        total_faults_injected=scope.stats.faults_injected,
    )
