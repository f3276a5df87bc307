"""Shard transports: how the coordinator reaches each shard.

Three implementations of one probe surface:

* :class:`LocalTransport` — the shards live in this process; each
  probe runs under the paper's measurement discipline (fresh
  100-frame pool, then one :class:`~repro.storage.stats.MeasureScope`),
  exactly mirroring :func:`repro.bench.harness.measure_query`.  The
  ``shards=1`` differential suite runs here.
* :class:`ProcessTransport` — one single-worker process pool per
  shard.  Slices and the captured
  :class:`~repro.exec.context.ExecContext` ship *by value* (the
  worker-shipping discipline of :mod:`repro.bench.parallel`); each
  worker builds its shard once and holds it for the transport's
  lifetime, so probes within a round genuinely overlap.
* :class:`ServeTransport` — remote shards behind
  :class:`repro.serve.server.QueryServer` instances, reached with one
  pipelined :class:`~repro.serve.client.ServeClient` per shard.  The
  per-request wire deadline bounds each round; a server that sheds
  (``"timeout"`` via deadline enforcement, or admission-control
  ``"shed"``) marks the probe timed out and the coordinator requeues
  the shard into a later round with a higher τ floor.

Every probe returns a :class:`ShardProbe`; probes carry their METRICS
delta so remote work folds back into the coordinator's process-global
registry via the existing snapshot/delta/merge protocol.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace

from repro.core.exceptions import ReproError
from repro.core.queries import Query
from repro.core.results import Match, QueryResult, QueryStats
from repro.exec.context import ExecContext
from repro.obs.metrics import METRICS
from repro.pdrtree.tree import PDRTreeConfig
from repro.shard.index import ShardedIndex, build_shard_index
from repro.shard.partition import ShardSlice
from repro.storage.buffer import DEFAULT_POOL_SIZE, BufferPool
from repro.storage.stats import MeasureScope


class ShardError(ReproError):
    """A shard failed to build or answer."""


@dataclass
class ShardProbe:
    """One shard's answer to one probe, with its measured work."""

    shard: int
    matches: list[Match]
    reads: int = 0
    #: Physical reads per component ("postings", "tuples", "pdr-node").
    reads_by_tag: dict[str, int] = field(default_factory=dict)
    stats: QueryStats | None = None
    #: The probe's METRICS delta (merged coordinator-side for remote
    #: transports; empty for transports that cannot capture it).
    metrics: dict[str, int] = field(default_factory=dict)
    #: The shard shed the probe (deadline or admission) — requeue it.
    timed_out: bool = False


def measured_probe(
    index,
    strategy: str | None,
    query: Query,
    tau_floor: float,
    pool_size: int,
    sketch: str | None = None,
    div_ceiling: float | None = None,
) -> tuple[QueryResult, int, dict[str, int], dict[str, int]]:
    """Execute one probe under the measurement protocol.

    Fresh buffer pool, then one
    :class:`~repro.storage.stats.MeasureScope` around the execution —
    the same accounting as :func:`repro.bench.harness.measure_query`,
    so per-shard reads add up against single-node measurements
    apples-to-apples.  Returns ``(result, reads, reads_by_tag,
    metrics_delta)``.

    ``sketch``/``div_ceiling`` carry the coordinator's similarity
    round state (shipped by value, never via environment re-reads).
    """
    index.pool = BufferPool(index.disk, pool_size)
    with MeasureScope(index.disk, metrics=METRICS) as scope:
        result = index.execute(
            query,
            strategy=strategy,
            tau_floor=tau_floor,
            sketch=sketch,
            div_ceiling=div_ceiling,
        )
    return result, scope.reads, scope.reads_by_tag, scope.metrics


class LocalTransport:
    """In-process shards: sequential probes, full measurement fidelity."""

    name = "local"
    #: Probe metrics already landed in this process's METRICS registry.
    remote = False

    def __init__(
        self,
        index: ShardedIndex,
        pool_size: int = DEFAULT_POOL_SIZE,
    ) -> None:
        self.index = index
        self.pool_size = pool_size

    @property
    def num_shards(self) -> int:
        return self.index.num_shards

    def probe_many(
        self,
        shard_ids: list[int],
        query: Query,
        tau_floor: float = 0.0,
        deadline_ms: float | None = None,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> list[ShardProbe]:
        # In-process shards never straggle; the deadline is a no-op.
        probes = []
        for shard in shard_ids:
            result, reads, breakdown, _ = measured_probe(
                self.index.shards[shard].index,
                self.index.strategy,
                query,
                tau_floor,
                self.pool_size,
                sketch,
                div_ceiling,
            )
            probes.append(
                ShardProbe(
                    shard=shard,
                    matches=list(result.matches),
                    reads=reads,
                    reads_by_tag=breakdown,
                    stats=result.stats,
                )
            )
        return probes

    def close(self) -> None:
        pass

    def __enter__(self) -> "LocalTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- process-pool workers ----------------------------------------------------
#
# One ProcessPoolExecutor(max_workers=1) per shard: the worker builds
# its shard's index once (from the shipped slice) and keeps it in a
# module global, so each probe ships only the query.  Everything the
# build and probes depend on — the slice plus every ambient setting, in
# one ExecContext — travels by value, never via environment re-reads,
# mirroring ``repro.bench.parallel._run_one``.

_WORKER_SHARDS: dict[int, tuple] = {}


def _worker_build(
    ctx: ExecContext,
    shard: int,
    slice_: ShardSlice,
    family: str,
    strategy: str | None,
    pdr_config: PDRTreeConfig | None,
    sketch_params=None,
) -> int:
    with ctx.scope():
        index = build_shard_index(slice_, family, pdr_config, sketch_params)
    _WORKER_SHARDS[shard] = (index, strategy, ctx)
    return shard


def _worker_probe(
    shard: int,
    query: Query,
    tau_floor: float,
    pool_size: int,
    sketch: str | None = None,
    div_ceiling: float | None = None,
) -> ShardProbe:
    try:
        index, strategy, ctx = _WORKER_SHARDS[shard]
    except KeyError:
        raise ShardError(
            f"worker for shard {shard} lost its index (process restarted?)"
        ) from None
    with ctx.scope():
        result, reads, breakdown, metrics = measured_probe(
            index, strategy, query, tau_floor, pool_size, sketch,
            div_ceiling,
        )
    return ShardProbe(
        shard=shard,
        matches=list(result.matches),
        reads=reads,
        reads_by_tag=breakdown,
        stats=result.stats,
        metrics=metrics,
    )


class ProcessTransport:
    """One worker process per shard; probes within a round overlap."""

    name = "process"
    remote = True

    def __init__(
        self,
        slices: list[ShardSlice],
        family: str = "inverted",
        strategy: str | None = None,
        pdr_config: PDRTreeConfig | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        sketch_params=None,
    ) -> None:
        if not slices:
            raise ShardError("need at least one shard slice")
        self.pool_size = pool_size
        self._pools = [
            ProcessPoolExecutor(max_workers=1) for _ in slices
        ]
        ctx = ExecContext.capture()
        builds = [
            pool.submit(
                _worker_build,
                ctx,
                shard,
                slice_,
                family,
                strategy,
                pdr_config,
                sketch_params,
            )
            for shard, (pool, slice_) in enumerate(zip(self._pools, slices))
        ]
        wait(builds)
        for future in builds:
            future.result()  # surface build failures now, not per probe

    @classmethod
    def from_sharded_index(
        cls,
        index: ShardedIndex,
        pool_size: int = DEFAULT_POOL_SIZE,
    ) -> "ProcessTransport":
        """Re-host an in-process :class:`ShardedIndex` in worker processes."""
        return cls(
            [shard.slice for shard in index.shards],
            family=index.family,
            strategy=index.strategy,
            pdr_config=index.pdr_config,
            pool_size=pool_size,
            sketch_params=index.sketch_params,
        )

    @property
    def num_shards(self) -> int:
        return len(self._pools)

    def probe_many(
        self,
        shard_ids: list[int],
        query: Query,
        tau_floor: float = 0.0,
        deadline_ms: float | None = None,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> list[ShardProbe]:
        # Deadlines are a wire-protocol concept; worker processes are
        # co-located and never shed (results would be computed either
        # way, and discarding them would lose their read accounting).
        futures = [
            self._pools[shard].submit(
                _worker_probe,
                shard,
                query,
                tau_floor,
                self.pool_size,
                sketch,
                div_ceiling,
            )
            for shard in shard_ids
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- remote shards over repro.serve ------------------------------------------


class _LoopThread:
    """A background thread running one asyncio event loop."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro):
        """Run a coroutine on the loop; block for (and return) its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()


class ShardCluster:
    """N :class:`~repro.serve.server.QueryServer`\\ s, one per shard.

    A synchronous harness for tests and benchmarks: starts every
    server on a background event loop (default config: ``measure``
    mode, so each served query runs under the paper's fresh-pool
    protocol and its ``reads`` field is the per-probe measurement)
    and exposes their addresses for a :class:`ServeTransport`.
    """

    def __init__(self, index: ShardedIndex, config=None) -> None:
        from repro.serve import ServeConfig

        if config is None:
            # The paper's pool size, not the serving default: a default
            # cluster must answer with single-node measurement fidelity.
            config = ServeConfig(
                mode="measure",
                strategy=index.strategy,
                pool_size=DEFAULT_POOL_SIZE,
            )
        self._config = replace(config, port=0)
        self._index = index
        self._loop: _LoopThread | None = None
        self._servers: list = []
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> list[tuple[str, int]]:
        from repro.serve import QueryServer

        self._loop = _LoopThread("shard-cluster")
        for shard in self._index.shards:
            server = QueryServer(shard.index, config=self._config)
            self._loop.call(server.start())
            self._servers.append(server)
            self.addresses.append(server.address)
        return self.addresses

    def stop(self) -> None:
        if self._loop is None:
            return
        for server in self._servers:
            self._loop.call(server.stop())
        self._loop.stop()
        self._loop = None
        self._servers = []

    def __enter__(self) -> "ShardCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServeTransport:
    """Remote shards over the :mod:`repro.serve` wire protocol.

    One pipelined :class:`~repro.serve.client.ServeClient` per shard,
    connected lazily and kept across rounds.  ``deadline_ms`` maps
    onto the wire deadline, so a straggling shard is *shed by its own
    server* (answer ``"timeout"``) instead of stalling the round; an
    admission-control ``"shed"`` is treated the same way.  Probes of
    one round fan out concurrently on the client loop.
    """

    name = "serve"
    remote = True

    def __init__(self, addresses: list[tuple[str, int]]) -> None:
        if not addresses:
            raise ShardError("need at least one shard address")
        self.addresses = list(addresses)
        self._loop = _LoopThread("shard-serve-transport")
        self._clients: list = [None] * len(addresses)

    @property
    def num_shards(self) -> int:
        return len(self.addresses)

    async def _client(self, shard: int):
        from repro.serve import ServeClient

        if self._clients[shard] is None:
            host, port = self.addresses[shard]
            self._clients[shard] = await ServeClient(host, port).connect()
        return self._clients[shard]

    async def _probe_async(
        self,
        shard: int,
        query: Query,
        tau_floor: float,
        deadline_ms: float | None,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> ShardProbe:
        client = await self._client(shard)
        payload = await client.request(
            query,
            deadline_ms=deadline_ms,
            tau_floor=tau_floor,
            sketch=sketch,
            div_ceiling=div_ceiling,
        )
        status = payload.get("status")
        if status in ("timeout", "shed"):
            return ShardProbe(shard=shard, matches=[], timed_out=True)
        if status != "ok":
            raise ShardError(
                f"shard {shard} answered {status!r}: "
                f"{payload.get('error') or payload.get('reason') or ''}"
            )
        matches = [
            Match(tid=int(tid), score=float(score))
            for tid, score in payload.get("matches", [])
        ]
        return ShardProbe(
            shard=shard,
            matches=matches,
            reads=int(payload.get("reads", 0)),
            reads_by_tag={},
        )

    async def _probe_many_async(
        self,
        shard_ids: list[int],
        query: Query,
        tau_floor: float,
        deadline_ms: float | None,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> list[ShardProbe]:
        return list(
            await asyncio.gather(
                *(
                    self._probe_async(
                        shard, query, tau_floor, deadline_ms, sketch,
                        div_ceiling,
                    )
                    for shard in shard_ids
                )
            )
        )

    def probe_many(
        self,
        shard_ids: list[int],
        query: Query,
        tau_floor: float = 0.0,
        deadline_ms: float | None = None,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> list[ShardProbe]:
        return self._loop.call(
            self._probe_many_async(
                shard_ids, query, tau_floor, deadline_ms, sketch,
                div_ceiling,
            )
        )

    async def _close_async(self) -> None:
        for client in self._clients:
            if client is not None:
                await client.close()

    def close(self) -> None:
        if self._loop is None:
            return
        self._loop.call(self._close_async())
        self._loop.stop()
        self._loop = None

    def __enter__(self) -> "ServeTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
