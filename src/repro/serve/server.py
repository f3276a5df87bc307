"""The admission-controlled asyncio query server.

:class:`QueryServer` keeps one index attached to a long-lived warm
buffer pool (via :class:`repro.exec.serving.ServingExecutor`) and
answers the JSON-lines protocol of :mod:`repro.serve.protocol` over
TCP.  Three serving disciplines, in arrival order:

**Admission control.**  A request is admitted only if the in-flight
count (admitted, not yet answered) is under ``max_inflight`` *and* the
wait queue is under ``queue_limit``; otherwise it is answered
``"shed"`` immediately with reason ``"inflight"`` or ``"queue"`` —
overload degrades availability, never correctness.

**Deadlines.**  Each admitted request carries an absolute deadline
(its own ``deadline_ms`` or the config default).  Deadlines are
checked when the run loop dequeues: a request that waited too long is
answered ``"timeout"`` without executing.  Execution is never
preempted — the deadline bounds *queueing*, the dominant delay under
load.

**One request at a time.**  A single run loop takes the head of the
queue and hands it to the worker thread as one call —
:meth:`~repro.exec.serving.ServingExecutor.execute` under the request's
own pushed-down bounds, or
:meth:`~repro.exec.serving.ServingExecutor.apply_mutation` — answers it
as soon as that call returns, then takes the next.  Each connection
still writes its responses in the order its requests arrived
(per-request futures, awaited FIFO by the connection's pump).

Execution runs on one dedicated worker thread
(``ThreadPoolExecutor(max_workers=1)``), so the event loop stays
responsive for admission decisions while a request runs, and
index/pool state is only ever touched single-threaded.  With one
request on the worker at a time, a mutation is atomic to every reader
by construction: a query runs wholly before or wholly after it.  All
``serve.*`` trace records and counters are emitted from the event-loop
thread.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.core.exceptions import QueryError, ReproError
from repro.exec.serving import ServedResult, ServingExecutor
from repro.obs.metrics import METRICS
from repro.obs.trace import active_tracer
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    matches_to_wire,
    parse_request,
)

#: Longest request line accepted, in bytes (asyncio's stream default,
#: pinned here so the refusal below can name it).
MAX_LINE_BYTES = 1 << 16

#: Response statuses tallied in :attr:`QueryServer.counters`.
_STATUSES = ("ok", "shed", "timeout", "error")


@dataclass
class _Pending:
    """One admitted request waiting in (or leaving) the run queue."""

    request: Request
    future: asyncio.Future
    #: Absolute ``loop.time()`` deadline, or None for "no deadline".
    deadline: float | None
    #: The label used in this request's ``serve.request`` trace record.
    label: str


class QueryServer:
    """Serve one index over TCP with admission control and deadlines.

    Usage::

        server = QueryServer(index, config=ServeConfig(port=0))
        await server.start()
        host, port = server.address
        ...
        await server.stop()

    or as an async context manager.  ``strategy`` rides in
    :class:`ServeConfig`; the executor validates the pairing up front.
    """

    def __init__(self, index, *, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.executor = ServingExecutor(
            index,
            strategy=self.config.strategy,
            mode=self.config.mode,
            pool_size=self.config.pool_size,
        )
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._queue: deque[_Pending] = deque()
        self._wake: asyncio.Event | None = None
        self._inflight = 0
        self._running = False
        self._server: asyncio.AbstractServer | None = None
        self._runner: asyncio.Task | None = None
        self._handlers: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        #: Response tallies for the ``stats`` op.  Every executed query
        #: adds one to ``batches`` and to ``coalesced`` alike (kept for
        #: readers that derive a mean batch size from the two).
        self.counters: dict[str, int] = {
            **{status: 0 for status in _STATUSES},
            "requests": 0,
            "batches": 0,
            "coalesced": 0,
            "mutations": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the run loop."""
        if self._server is not None:
            raise ReproError("server already started")
        self._wake = asyncio.Event()
        self._running = True
        self._server = await asyncio.start_server(
            self._handle,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._runner = asyncio.create_task(self._run_loop())

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port resolved if config said 0)."""
        if self._server is None:
            raise ReproError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def drain(self) -> None:
        """Wait until every admitted request has been answered."""
        while self._inflight > 0:
            await asyncio.sleep(0.002)

    async def stop(self) -> None:
        """Stop accepting, finish/flush outstanding work, release threads.

        The request already executing completes and its response is
        delivered; requests still waiting in the queue, and any that
        arrive from here on, are answered ``"shed"`` with reason
        ``"shutdown"``.  A connection still open after a one-second
        grace period is cut off, unsent replies and all.
        """
        self._running = False
        if self._server is not None:
            self._server.close()
        if self._runner is not None:
            assert self._wake is not None
            self._wake.set()
            await self._runner
            self._runner = None
        while self._queue:
            pending = self._queue.popleft()
            self._finish(
                pending,
                {"id": pending.request.id, "status": "shed",
                 "reason": "shutdown"},
                status="shed",
                reason="shutdown",
            )
        # One turn of the loop lets each connection's pump write the
        # replies resolved above before its writer closes.
        await asyncio.sleep(0)
        # Reap open connections so no handler task outlives the server
        # (a lingering task trips asyncio's loop-teardown diagnostics).
        for writer in list(self._writers):
            writer.close()
        handlers = [task for task in self._handlers if not task.done()]
        if handlers:
            _, stuck = await asyncio.wait(handlers, timeout=1.0)
            if stuck:
                # A client that never reads leaves its pump blocked in
                # drain() and close() waiting on a flush that never
                # comes.  Aborting drops the unsent bytes: drain() then
                # raises, the pump keeps consuming, the handler ends.
                for writer in list(self._writers):
                    writer.transport.abort()
                await asyncio.wait(stuck)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._worker.shutdown(wait=True)

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- per-connection handling ---------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Responses must leave in arrival order even though requests
        # resolve out of order across connections: every request gets a
        # future at dispatch time, and this connection's pump awaits
        # them strictly FIFO.  The queue is bounded so a client that
        # pipelines without reading cannot grow it: control ops, sheds
        # and parse errors resolve at once and admission never sees
        # them, but a full queue suspends this reader and TCP pushes
        # back on the sender.  The bound is the two admission limits
        # together, so one connection can still fill the whole
        # admission window and see the overflow shed promptly.
        out: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.max_inflight + self.config.queue_limit
        )
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        pump = asyncio.create_task(self._pump(out, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the stream limit.  The rest of the line is
                    # still in flight, so this stream cannot be brought
                    # back in step: answer, then hang up.
                    await out.put(
                        self._immediate_error(
                            None,
                            "?",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        )
                    )
                    break
                if not line:
                    break
                await out.put(self._dispatch(line))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await out.put(None)
            await pump
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)

    async def _pump(self, out: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        connected = True
        while True:
            future = await out.get()
            if future is None:
                return
            payload = await future
            if not connected:
                continue
            try:
                writer.write(encode_line(payload))
                await writer.drain()
            except (ConnectionError, OSError):
                # Client went away: stop writing, but keep awaiting
                # futures so admitted requests still drain through
                # _finish bookkeeping and the reader is never left
                # blocked on a full queue.
                connected = False

    # -- dispatch and admission ----------------------------------------------

    def _resolved(self, payload: dict[str, Any]) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        future.set_result(payload)
        return future

    def _dispatch(self, line: bytes) -> asyncio.Future:
        """Parse, admission-check, and enqueue one request line.

        Always returns a future for the response payload, already
        resolved for control ops, sheds, and malformed requests.
        """
        tracer = active_tracer()
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            return self._immediate_error(None, "?", str(exc))
        op = message.get("op")
        if op is not None:
            return self._resolved(self._control(op, message))
        try:
            request = parse_request(message)
        except (ProtocolError, QueryError) as exc:
            return self._immediate_error(
                message.get("id"), str(message.get("kind", "?")), str(exc)
            )
        label = (
            request.mutation.op
            if request.mutation is not None
            else type(request.query).__name__
        )
        reason = None
        if not self._running:
            reason = "shutdown"
        elif self._inflight >= self.config.max_inflight:
            reason = "inflight"
        elif len(self._queue) >= self.config.queue_limit:
            reason = "queue"
        if reason is not None:
            METRICS.inc(f"serve.shed.{reason}")
            if tracer is not None:
                tracer.event("serve.shed", reason=reason)
            payload = {"id": request.id, "status": "shed", "reason": reason}
            self._record(label, "shed", reason=reason)
            return self._resolved(payload)
        # Admitted: compute the absolute deadline and queue for the run
        # loop.  loop.time() is monotonic, immune to clock steps.
        loop = asyncio.get_running_loop()
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.deadline_ms
        )
        deadline = (
            None if deadline_ms is None else loop.time() + deadline_ms / 1000.0
        )
        pending = _Pending(
            request=request,
            future=loop.create_future(),
            deadline=deadline,
            label=label,
        )
        self._inflight += 1
        self._queue.append(pending)
        assert self._wake is not None
        self._wake.set()
        return pending.future

    def _immediate_error(
        self, request_id, label: str, error: str
    ) -> asyncio.Future:
        payload: dict[str, Any] = {"status": "error", "error": error}
        if request_id is not None:
            payload["id"] = request_id
        self._record(label, "error")
        return self._resolved(payload)

    def _control(self, op: Any, message: dict[str, Any]) -> dict[str, Any]:
        payload: dict[str, Any] = {"op": op, "status": "ok"}
        if "id" in message:
            payload["id"] = message["id"]
        if op == "ping":
            payload["op"] = "pong"
        elif op == "stats":
            payload.update(
                mode=self.config.mode,
                inflight=self._inflight,
                queued=len(self._queue),
                counters=dict(self.counters),
                hit_ratio=self.executor.hit_ratio(),
                tuple_cache=self.executor.tuple_cache_stats(),
            )
        elif op == "reset_window":
            self.executor.reset_window()
        else:
            payload.update(status="error", error=f"unknown op {op!r}")
        return payload

    # -- the run loop --------------------------------------------------------

    async def _run_loop(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._wake is not None
        while self._running:
            if not self._queue:
                self._wake.clear()
                await self._wake.wait()
                continue
            pending = self._queue.popleft()
            if pending.deadline is not None and loop.time() > pending.deadline:
                self._finish(
                    pending,
                    {"id": pending.request.id, "status": "timeout"},
                    status="timeout",
                )
                continue
            await self._run(loop, pending)

    async def _run(self, loop, pending: _Pending) -> None:
        """Execute one request on the worker thread and answer it."""
        request = pending.request
        mutation = request.mutation
        if mutation is not None:
            call = partial(
                self.executor.apply_mutation,
                mutation.op,
                tid=mutation.tid,
                uda=mutation.uda,
            )
        else:
            call = partial(
                self.executor.execute,
                request.query,
                tau_floor=request.tau_floor,
                sketch=request.sketch,
                div_ceiling=request.div_ceiling,
            )
        try:
            outcome = await loop.run_in_executor(self._worker, call)
        except Exception as exc:  # noqa: BLE001 -- answered, not raised
            self._fail(pending, exc)
            return
        if mutation is not None:
            METRICS.inc("serve.mutation")
            self.counters["mutations"] += 1
            self._finish(
                pending,
                {"id": request.id, "status": "ok",
                 "op": mutation.op, "mutations": outcome},
                status="ok",
            )
            return
        self.counters["batches"] += 1
        self.counters["coalesced"] += 1
        self._finish(
            pending,
            self._ok_payload(request.id, outcome),
            status="ok",
            reads=outcome.reads,
            matches=len(outcome),
        )

    # -- response bookkeeping ------------------------------------------------

    def _ok_payload(self, request_id, result: ServedResult) -> dict[str, Any]:
        return {
            "id": request_id,
            "status": "ok",
            "matches": matches_to_wire(result.result),
            "reads": result.reads,
            "mode": result.mode,
        }

    def _finish(
        self,
        pending: _Pending,
        payload: dict[str, Any],
        *,
        status: str,
        **trace_fields: Any,
    ) -> None:
        if not pending.future.done():
            pending.future.set_result(payload)
        self._inflight -= 1
        self._record(pending.label, status, **trace_fields)

    def _fail(self, pending: _Pending, exc: Exception) -> None:
        """Answer one admitted request ``"error"``."""
        self._finish(
            pending,
            {"id": pending.request.id, "status": "error", "error": str(exc)},
            status="error",
        )

    def _record(self, label: str, status: str, **trace_fields: Any) -> None:
        """Tally and trace one written response."""
        METRICS.inc(f"serve.request.{status}")
        self.counters[status] += 1
        self.counters["requests"] += 1
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "serve.request", query=label, status=status, **trace_fields
            )
