"""A thin asyncio client for the :mod:`repro.serve` protocol.

Used by the stress tests and ``benchmarks/bench_abl_serving.py``.  Two
submission styles:

- :meth:`ServeClient.query` — one request, one awaited response.
- :meth:`ServeClient.pipeline` — write a whole workload before reading
  any response.  Because the server answers each connection in arrival
  order, responses come back aligned with the submitted list — and
  because the requests are all queued at once, this is the path that
  actually exercises admission control.
"""

from __future__ import annotations

from typing import Any

import asyncio

from repro.core.exceptions import ReproError
from repro.core.queries import Query
from repro.serve.protocol import (
    Mutation,
    ProtocolError,
    decode_line,
    encode_line,
    mutation_to_wire,
    query_to_wire,
)


class ServeError(ReproError):
    """The server answered something other than ``status: ok``."""

    def __init__(self, payload: dict[str, Any]) -> None:
        self.payload = payload
        status = payload.get("status", "?")
        detail = payload.get("reason") or payload.get("error") or ""
        super().__init__(
            f"request {payload.get('id', '?')} failed: {status}"
            + (f" ({detail})" if detail else "")
        )


class ServeClient:
    """One TCP connection to a :class:`repro.serve.server.QueryServer`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- wire helpers --------------------------------------------------------

    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _encode_query(
        self,
        query: Query,
        deadline_ms: float | None,
        tau_floor: float = 0.0,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> tuple[int, bytes]:
        request_id = self._fresh_id()
        message = {"id": request_id, **query_to_wire(query)}
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        if tau_floor:
            message["tau_floor"] = tau_floor
        if sketch is not None:
            message["sketch"] = sketch
        if div_ceiling is not None:
            message["div_ceiling"] = div_ceiling
        return request_id, encode_line(message)

    async def _read_payload(self) -> dict[str, Any]:
        assert self._reader is not None, "client not connected"
        line = await self._reader.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        return decode_line(line)

    async def _send(self, data: bytes) -> None:
        assert self._writer is not None, "client not connected"
        self._writer.write(data)
        await self._writer.drain()

    # -- requests ------------------------------------------------------------

    async def request(
        self,
        query: Query,
        *,
        deadline_ms: float | None = None,
        tau_floor: float = 0.0,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> dict[str, Any]:
        """Submit one query; return the raw response payload.

        ``deadline_ms`` maps onto the wire deadline: the server answers
        ``"timeout"`` instead of executing if the request waits longer
        than this in its queue.  ``tau_floor`` elevates a topk request's
        pruning threshold (the shard coordinator's round protocol).
        ``sketch`` overrides the server's sketch pre-filter mode on
        similarity requests; ``div_ceiling`` caps a ``simtopk`` request
        at the coordinator's global k-th divergence.
        """
        _, data = self._encode_query(
            query, deadline_ms, tau_floor, sketch, div_ceiling
        )
        await self._send(data)
        return await self._read_payload()

    async def query(
        self,
        query: Query,
        *,
        deadline_ms: float | None = None,
        tau_floor: float = 0.0,
        sketch: str | None = None,
        div_ceiling: float | None = None,
    ) -> dict[str, Any]:
        """Submit one query; raise :class:`ServeError` unless ``ok``."""
        payload = await self.request(
            query,
            deadline_ms=deadline_ms,
            tau_floor=tau_floor,
            sketch=sketch,
            div_ceiling=div_ceiling,
        )
        if payload.get("status") != "ok":
            raise ServeError(payload)
        return payload

    async def pipeline(
        self,
        queries: list[Query],
        *,
        deadline_ms: float | list[float | None] | None = None,
        tau_floors: list[float] | None = None,
    ) -> list[dict[str, Any]]:
        """Submit a workload back-to-back, then collect every response.

        Responses align with ``queries`` by position (the server
        preserves per-connection arrival order).

        ``deadline_ms`` is the per-request timeout surface for pipelined
        use: a scalar applies one wire deadline to every request, a list
        (aligned with ``queries``; ``None`` entries mean "no deadline")
        bounds each request individually — which is how the shard
        coordinator bounds a whole round without hanging on a straggler:
        the server *sheds* a request still queued past its deadline
        (answers ``"timeout"``) rather than executing it.  ``tau_floors``
        optionally carries a per-request pruning floor, aligned the same
        way.
        """
        assert self._writer is not None, "client not connected"
        if isinstance(deadline_ms, list):
            if len(deadline_ms) != len(queries):
                raise ProtocolError(
                    f"deadline_ms list has {len(deadline_ms)} entries for "
                    f"{len(queries)} queries"
                )
            deadlines = deadline_ms
        else:
            deadlines = [deadline_ms] * len(queries)
        if tau_floors is not None and len(tau_floors) != len(queries):
            raise ProtocolError(
                f"tau_floors has {len(tau_floors)} entries for "
                f"{len(queries)} queries"
            )
        expected = []
        for position, query in enumerate(queries):
            request_id, data = self._encode_query(
                query,
                deadlines[position],
                tau_floors[position] if tau_floors is not None else 0.0,
            )
            self._writer.write(data)
            expected.append(request_id)
        await self._writer.drain()
        payloads = []
        for request_id in expected:
            payload = await self._read_payload()
            if payload.get("id") != request_id:
                raise ProtocolError(
                    f"response out of order: expected id {request_id}, "
                    f"got {payload.get('id')!r}"
                )
            payloads.append(payload)
        return payloads

    # -- mutations -----------------------------------------------------------

    async def _mutate(self, mutation: Mutation) -> dict[str, Any]:
        message = {"id": self._fresh_id(), **mutation_to_wire(mutation)}
        await self._send(encode_line(message))
        payload = await self._read_payload()
        if payload.get("status") != "ok":
            raise ServeError(payload)
        return payload

    async def insert(self, tid: int, uda) -> dict[str, Any]:
        """Insert a tuple; the ok-payload carries the ``mutations`` stamp."""
        return await self._mutate(Mutation(op="insert", tid=tid, uda=uda))

    async def delete(self, tid: int) -> dict[str, Any]:
        """Delete a tuple by tid; raises :class:`ServeError` unless ``ok``."""
        return await self._mutate(Mutation(op="delete", tid=tid))

    async def compact(self) -> dict[str, Any]:
        """Ask the server to compact its index's mutable segments."""
        return await self._mutate(Mutation(op="compact"))

    # -- control ops ---------------------------------------------------------

    async def _control(self, op: str) -> dict[str, Any]:
        await self._send(encode_line({"op": op, "id": self._fresh_id()}))
        return await self._read_payload()

    async def ping(self) -> dict[str, Any]:
        return await self._control("ping")

    async def stats(self) -> dict[str, Any]:
        return await self._control("stats")

    async def reset_window(self) -> dict[str, Any]:
        return await self._control("reset_window")
