"""Hold a query server's one worker thread so that requests queue.

The server runs one request at a time, so while the worker is held
inside one request's ``execute`` every later admitted request waits in
the queue — which is what admission control, deadlines-at-dequeue and
shutdown shedding act on.
"""

import asyncio
import threading
from contextlib import asynccontextmanager

from repro.serve import ServeClient


class WorkerGate:
    """Block chosen ``execute`` calls on a ``threading.Event``.

    Installs an instance patch on ``server.executor.execute``: a call
    whose query ``holds`` accepts (default: every call) waits until
    :meth:`release`; after that every call runs straight through.
    ``executed`` counts the calls that got past the gate.
    """

    def __init__(self, server, holds=None):
        self._entered = threading.Event()
        self._released = threading.Event()
        self.executed = 0
        execute = server.executor.execute

        def gated(query, **pushed):
            if holds is None or holds(query):
                self._entered.set()
                self._released.wait(timeout=30)
            self.executed += 1
            return execute(query, **pushed)

        server.executor.execute = gated

    async def entered(self):
        """Return once a held call is waiting on the gate."""
        await until(self._entered.is_set)

    def release(self):
        self._released.set()


async def until(predicate, timeout=10.0):
    """Poll ``predicate`` on the event loop until it holds."""

    async def poll():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout)


@asynccontextmanager
async def held_worker(server, query):
    """Occupy the worker with ``query``, sent on a connection of its own.

    Yields the :class:`WorkerGate` once the worker is held inside that
    request; leaving the block releases it and waits for its reply,
    which ``gate.reply`` then holds.  The held request counts against
    ``max_inflight`` like any other.
    """
    gate = WorkerGate(server)
    async with ServeClient(*server.address) as client:
        reply = asyncio.ensure_future(client.request(query))
        try:
            await gate.entered()
            yield gate
        finally:
            gate.release()
            gate.reply = await asyncio.wait_for(reply, 10)
