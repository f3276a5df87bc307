"""The load generator: one process, one thread, asyncio, two connections.

**Closed loop** (the gated shape): each connection sends its next
request when the previous reply arrives.  A *pass* sends every distinct
query of the workload once, in the seeded order, the two connections
drawing from one shared queue; all writes go out on connection 0, at
positions pinned to the pass's progress, so the server sees one
writer.  Passes repeat until the window's deadline; a pass cut short by
the deadline is reported apart and feeds no metric.  Between passes, while
nothing is in flight, the caller times its speed reference.

**Open loop**: requests are sent at seeded Poisson due times whatever
the server does, each on its own task over a small pool of
connections; latency is timed from the *due* time, and how late the
generator itself ran is reported beside it.

Replies are stored raw and checked after the window, so that checking
costs the generator nothing while it measures.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

from repro.serve.protocol import encode_line

#: Reply lines reach ~30 bytes per match; the default 64 KiB stream
#: limit would cut a 10 %-selectivity answer on a larger dataset.
STREAM_LIMIT = 1 << 22

#: Connections of the closed loop (the box has two cores).
CONNECTIONS = 2

#: Connections the open loop spreads its arrivals over.  More than the
#: closed loop's two, so a stalled reply does not hold back later sends;
#: the server still answers each connection in arrival order.
OPEN_CONNECTIONS = 8


@dataclass
class Sample:
    """One request as the client saw it."""

    #: ``query`` / ``insert`` / ``delete`` / ``compact``.
    op: str
    #: Position in ``Inputs.requests`` (queries) or in the write log.
    index: int
    sent: float
    received: float
    raw: bytes
    #: Open loop only: when the request was due.
    due: float | None = None

    @property
    def latency_ms(self) -> float:
        start = self.sent if self.due is None else self.due
        return (self.received - start) * 1e3


@dataclass
class PassResult:
    samples: list[Sample]
    started: float
    ended: float
    complete: bool

    @property
    def ops_per_second(self) -> float:
        return len(self.samples) / (self.ended - self.started)


@dataclass
class WriteLog:
    """Every mutation sent, in send order (the single writer's order)."""

    #: ``[wire_fields, send_time, ack_time_or_None]`` per write.
    entries: list[list] = field(default_factory=list)


class Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=STREAM_LIMIT
        )
        return cls(reader, writer)

    async def roundtrip(self, line: bytes) -> tuple[float, float, bytes]:
        sent = time.perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        raw = await self.reader.readline()
        received = time.perf_counter()
        if not raw:
            raise ConnectionError("server closed the connection")
        return sent, received, raw

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def mutation_line(fields: dict, request_id: int) -> bytes:
    return encode_line({"id": request_id, **fields})


class ClosedLoop:
    """Passes of the workload over two connections."""

    def __init__(self, inputs, connections: list[Connection], stream, log: WriteLog):
        self.inputs = inputs
        self.connections = connections
        self.stream = stream
        self.log = log

    async def _send_write(self, conn: Connection, fields: dict, samples: list) -> None:
        # Logged before it is sent: a write the server may have applied
        # must be visible to the prefix oracle even if no ack returns.
        entry = [fields, time.perf_counter(), None]
        self.log.entries.append(entry)
        position = len(self.log.entries) - 1
        sent, received, raw = await conn.roundtrip(
            mutation_line(fields, 1_000_000 + position)
        )
        entry[2] = received
        samples.append(Sample(fields["mutate"], position, sent, received, raw))

    async def run_pass(self, deadline: float | None, limit: int | None = None) -> PassResult:
        """One pass; ``limit`` sends only the first ``limit`` queries (no writes)."""
        spec = self.inputs.spec
        requests = self.inputs.requests
        total_queries = len(requests) if limit is None else min(limit, len(requests))
        queue = deque(range(total_queries))
        writes_total = spec.writes_per_pass if limit is None else 0
        compact_after = (
            writes_total // 2 if spec.compact_per_pass and writes_total else None
        )
        drawn = 0
        written = 0
        samples: list[Sample] = []

        def expired() -> bool:
            return deadline is not None and time.perf_counter() >= deadline

        async def write_until(conn: Connection, due: int) -> None:
            nonlocal written
            while written < due and not expired():
                written += 1
                await self._send_write(conn, self.stream.next_write(), samples)
                if written == compact_after:
                    await self._send_write(conn, {"mutate": "compact"}, samples)

        async def worker(conn: Connection, writer: bool) -> None:
            nonlocal drawn
            while queue and not expired():
                if writer:
                    # Write j goes out once j/writes_total of the pass's
                    # queries have been drawn, so writes sit at the same
                    # places whichever connection is faster.
                    await write_until(conn, drawn * writes_total // total_queries)
                    if not queue:
                        break
                index = queue.popleft()
                drawn += 1
                sent, received, raw = await conn.roundtrip(requests[index].line)
                samples.append(Sample("query", index, sent, received, raw))
            if writer:
                await write_until(conn, writes_total)

        started = time.perf_counter()
        await asyncio.gather(
            *(worker(conn, position == 0) for position, conn in enumerate(self.connections))
        )
        ended = time.perf_counter()
        complete = not queue and written == writes_total
        return PassResult(samples, started, ended, complete)

    async def run_window(self, seconds: float | None, between) -> list[PassResult]:
        """Passes until ``seconds`` have elapsed (None: exactly one pass).

        The last pass may be cut short by the deadline.  ``between()`` is
        called before the first pass and after every pass, while no
        request is in flight.
        """
        deadline = None if seconds is None else time.perf_counter() + seconds
        passes = []
        between()
        while True:
            passes.append(await self.run_pass(deadline))
            between()
            if deadline is None or time.perf_counter() >= deadline:
                return passes

    async def run_passes(self, count: int) -> list[PassResult]:
        return [await self.run_pass(None) for _ in range(count)]


def serial_ops(inputs, stream):
    """The pass's operations in the order ONE connection sends them, forever.

    Yields ``(op, wire_fields_or_None, query_index_or_None)``; writes sit
    at the same places of the pass as in :meth:`ClosedLoop.run_pass`.
    """
    spec = inputs.spec
    total = len(inputs.requests)
    writes_total = spec.writes_per_pass
    compact_after = writes_total // 2 if spec.compact_per_pass and writes_total else None
    while True:
        written = 0
        for drawn in range(total + 1):
            due = writes_total if drawn == total else drawn * writes_total // total
            while written < due:
                written += 1
                fields = stream.next_write()
                yield fields["mutate"], fields, None
                if written == compact_after:
                    yield "compact", {"mutate": "compact"}, None
            if drawn < total:
                yield "query", None, drawn


@dataclass
class OpenLoopResult:
    samples: list[Sample]
    #: How late after its due time each request was written, ms.
    lateness_ms: list[float]
    #: Requests sent but unanswered when the last arrival was sent.
    backlog_at_end: int


async def open_loop(inputs, port: int, schedule, deadline_s: float | None = None) -> OpenLoopResult:
    """Send the pass's queries at ``schedule`` due times (s from start)."""
    conns = [await Connection.open(port) for _ in range(OPEN_CONNECTIONS)]
    # Per-connection FIFO of reply handlers: the server answers each
    # connection in arrival order, so replies pair with sends by order.
    pending: list[deque] = [deque() for _ in conns]
    samples: list[Sample] = []
    lateness: list[float] = []
    outstanding = 0
    requests = inputs.requests

    async def reader(position: int) -> None:
        nonlocal outstanding
        conn = conns[position]
        while True:
            raw = await conn.reader.readline()
            if not raw:
                return
            received = time.perf_counter()
            index, sent, due = pending[position].popleft()
            samples.append(Sample("query", index, sent, received, raw, due=due))
            outstanding -= 1

    readers = [asyncio.create_task(reader(position)) for position in range(len(conns))]
    start = time.perf_counter() + 0.05
    sent_count = 0
    for arrival, offset in enumerate(schedule):
        if deadline_s is not None and offset > deadline_s:
            break
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        position = arrival % len(conns)
        index = arrival % len(requests)
        sent = time.perf_counter()
        lateness.append((sent - due) * 1e3)
        pending[position].append((index, sent, due))
        outstanding += 1
        sent_count += 1
        conns[position].writer.write(requests[index].line)
    backlog = outstanding
    # Everything sent is awaited (a reply that never comes fails the
    # run through the timeout below, not through a silent drop).
    waited = time.perf_counter()
    while outstanding and time.perf_counter() - waited < 30.0:
        await asyncio.sleep(0.005)
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for conn in conns:
        await conn.close()
    if outstanding:
        raise RuntimeError(f"open loop: {outstanding} of {sent_count} requests unanswered")
    return OpenLoopResult(samples, lateness, backlog)


async def durability_stream(conn: Connection, stream, log: WriteLog, count: int) -> list[Sample]:
    """``count`` acknowledged writes, closed loop on one connection."""
    samples: list[Sample] = []
    for _ in range(count):
        fields = stream.next_write()
        entry = [fields, 0.0, None]
        log.entries.append(entry)
        line = mutation_line(fields, 2_000_000 + len(log.entries))
        sent, received, raw = await conn.roundtrip(line)
        entry[1], entry[2] = sent, received
        samples.append(Sample(fields["mutate"], len(log.entries) - 1, sent, received, raw))
    return samples


async def kill_mid_stream(conn: Connection, stream, log: WriteLog, burst: int, kill) -> None:
    """Pipeline ``burst`` writes, SIGKILL after the first ack, drain acks.

    A reply already in the client's socket buffer when the server dies
    was acknowledged (the server wrote it after its fsync), so whatever
    can still be read counts; the rest of the burst does not.
    """
    entries = []
    for _ in range(burst):
        fields = stream.next_write()
        entry = [fields, time.perf_counter(), None]
        log.entries.append(entry)
        entries.append(entry)
        conn.writer.write(mutation_line(fields, 3_000_000 + len(log.entries)))
    await conn.writer.drain()
    raw = await conn.reader.readline()
    kill()
    position = 0
    while raw:
        payload = json.loads(raw)
        if payload.get("status") != "ok":
            raise RuntimeError(f"burst write failed: {payload}")
        entries[position][2] = time.perf_counter()
        position += 1
        if position == len(entries):
            break
        try:
            raw = await asyncio.wait_for(conn.reader.readline(), timeout=5.0)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            break
