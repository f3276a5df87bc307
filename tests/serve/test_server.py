"""Tests for :mod:`repro.serve.server` (admission, deadlines, replies).

No pytest-asyncio in the toolchain, so each test drives its own event
loop with ``asyncio.run``.  The server binds port 0 (ephemeral) on
loopback.  Tests that need requests to wait in the queue hold the
server's one worker with :mod:`tests.serve.gate`.
"""

import asyncio
import json
import socket

import pytest

from repro.exec import ServingExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.obs.schema import validate_records
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.serve import QueryServer, ServeClient, ServeConfig, ServeError
from repro.serve.protocol import decode_line, encode_line, query_to_wire

from tests.exec.test_batch import POOL_SIZE, mixed_workload
from tests.invindex.conftest import random_relation
from tests.invindex.reference import reference_strategies
from tests.serve.gate import WorkerGate, held_worker, until


@pytest.fixture(scope="module")
def relation():
    return random_relation(250, 12, seed=91)


@pytest.fixture(scope="module")
def index(relation):
    built = ProbabilisticInvertedIndex(len(relation.domain))
    built.build(relation)
    return built


@pytest.fixture(scope="module")
def workload(relation):
    return mixed_workload(len(relation.domain), 16, base_seed=5)


@pytest.fixture(scope="module")
def expected(index, workload):
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    return [
        [[m.tid, m.score] for m in measure.execute(q).result.matches]
        for q in workload
    ]


def run(coro):
    return asyncio.run(coro)


def test_single_query_roundtrip(index, workload, expected):
    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as client:
                return await client.query(workload[0])

    payload = run(scenario())
    assert payload["status"] == "ok"
    assert payload["mode"] == "serve"
    assert payload["matches"] == expected[0]


def test_pipeline_answers_align_and_match_measure(index, workload, expected):
    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as client:
                payloads = await client.pipeline(workload)
            await server.drain()
            server.executor.check_quiesced()
            return payloads

    payloads = run(scenario())
    assert [p["status"] for p in payloads] == ["ok"] * len(workload)
    assert [p["matches"] for p in payloads] == expected
    assert all("coalesced" not in p for p in payloads)


def test_each_reply_leaves_when_its_own_execute_returns(
    index, workload, expected
):
    """A and B wait in the queue together, from two connections, and
    B's ``execute`` is held.  A's reply must arrive while B is still
    held: no request is answered only once a neighbour has run."""
    a, b = workload[0], workload[1]
    b_wire = query_to_wire(b)
    assert query_to_wire(a) != b_wire != query_to_wire(workload[2])

    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            hold_b = WorkerGate(
                server, holds=lambda query: query_to_wire(query) == b_wire
            )
            async with ServeClient(*server.address) as first, ServeClient(
                *server.address
            ) as second:
                async with held_worker(server, workload[2]):
                    reply_a = asyncio.ensure_future(first.request(a))
                    await until(lambda: len(server._queue) == 1)
                    reply_b = asyncio.ensure_future(second.request(b))
                    await until(lambda: len(server._queue) == 2)
                try:
                    await hold_b.entered()
                    payload_a = await asyncio.wait_for(reply_a, 5)
                    b_was_held = not reply_b.done()
                finally:
                    hold_b.release()
                payload_b = await asyncio.wait_for(reply_b, 10)
        return payload_a, b_was_held, payload_b

    payload_a, b_was_held, payload_b = run(scenario())
    assert b_was_held
    assert payload_a["status"] == payload_b["status"] == "ok"
    assert payload_a["matches"] == expected[0]
    assert payload_b["matches"] == expected[1]


def test_control_ops(index, workload):
    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as client:
                pong = await client.ping()
                await client.query(workload[0])
                stats = await client.stats()
                reset = await client.reset_window()
                return pong, stats, reset

    pong, stats, reset = run(scenario())
    assert pong["op"] == "pong" and pong["status"] == "ok"
    assert stats["mode"] == "serve"
    assert stats["counters"]["ok"] == 1
    assert 0.0 <= stats["hit_ratio"] <= 1.0
    assert reset["status"] == "ok"


def test_stats_reports_tuple_cache_counts(index, workload):
    """``stats`` carries the tuple store's residency, hits and misses."""

    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as client:
                empty = await client.stats()
                await client.query(workload[0])
                cold = await client.stats()
                await client.query(workload[0])
                warm = await client.stats()
                return empty, cold, warm

    empty, cold, warm = run(scenario())
    assert empty["tuple_cache"] == {"entries": 0, "hits": 0, "misses": 0}
    decoded = cold["tuple_cache"]["misses"]
    assert decoded > 0 and cold["tuple_cache"]["entries"] == decoded
    assert warm["tuple_cache"] == {
        "entries": decoded,
        "hits": cold["tuple_cache"]["hits"] + decoded,
        "misses": decoded,
    }

    async def measured():
        config = ServeConfig(mode="measure", pool_size=POOL_SIZE)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                await client.query(workload[0])
                return await client.stats()

    # The paper protocol keeps no tuple store at all.
    assert run(measured())["tuple_cache"] == {"entries": 0, "hits": 0, "misses": 0}


def test_malformed_and_unknown_requests_answer_error(index):
    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b"{not json\n")
            writer.write(encode_line({"id": 9, "kind": "nope"}))
            writer.write(encode_line({"op": "explode", "id": 10}))
            await writer.drain()
            lines = [await reader.readline() for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            return [json.loads(line) for line in lines]

    bad_json, bad_kind, bad_op = run(scenario())
    assert bad_json["status"] == "error"
    assert bad_kind["status"] == "error" and bad_kind["id"] == 9
    assert "unknown query kind" in bad_kind["error"]
    assert bad_op["status"] == "error" and "unknown op" in bad_op["error"]


def test_overlong_line_answers_error_and_closes_only_that_connection(
    index, workload
):
    """Regression: a line over the stream limit used to raise
    ``ValueError`` out of the handler task — the client saw EOF with no
    reply and asyncio logged "Task exception was never retrieved"."""

    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as bystander:
                await bystander.query(workload[0])
                reader, writer = await asyncio.open_connection(*server.address)
                reading = asyncio.ensure_future(reader.read())
                writer.write(b"x" * 200_000 + b"\n")
                received = await asyncio.wait_for(reading, timeout=10)
                writer.close()
                after = await bystander.query(workload[1])
                stats = await bystander.stats()
            return received, after, stats

    received, after, stats = run(scenario())
    # Exactly one reply, then EOF: the server hung up on this stream.
    (reply,) = [json.loads(line) for line in received.splitlines()]
    assert reply["status"] == "error"
    assert "65536 bytes" in reply["error"]  # names the limit
    assert after["status"] == "ok"
    assert stats["inflight"] == 0 and stats["queued"] == 0
    assert stats["counters"]["error"] == 1 and stats["counters"]["ok"] == 2


#: Malformed (a JSON string, not an object) and echoed in the error, so
#: each ~1 KiB line costs the server a ~1 KiB response.
UNREAD_LINE = json.dumps("x" * 1000).encode() + b"\n"
UNREAD_FLOOD = 3000


async def settled(server):
    """The error tally once the server has stopped making progress."""
    last = -1
    while server.counters["error"] != last:
        last = server.counters["error"]
        await asyncio.sleep(0.1)
    return last


async def slow_reader(server):
    """Connect with small buffers on both ends of the connection."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    before = set(server._writers)
    await asyncio.get_running_loop().sock_connect(sock, server.address)
    reader, writer = await asyncio.open_connection(sock=sock)
    while not set(server._writers) - before:
        await asyncio.sleep(0)
    (peer,) = set(server._writers) - before
    peer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
    )
    return reader, writer


def test_unread_pipeline_is_bounded_and_abrupt_close_drains(
    index, workload, caplog
):
    """A client that pipelines without reading cannot grow the server:
    responses that resolve at once (parse errors here) never pass
    admission control, so the per-connection queue is what must bound
    them.  Once the client reads, every line is answered; and a client
    that vanishes instead leaves no slot, task or futile write behind."""
    config = ServeConfig(max_inflight=4, queue_limit=4)
    bound = config.max_inflight + config.queue_limit
    line, flood = UNREAD_LINE, UNREAD_FLOOD
    # Bytes that may sit in socket buffers (the clamped kernel buffers
    # plus asyncio's 64 KiB write high-water mark), generously.
    slack = (1 << 20) // len(line)
    assert bound + slack < flood // 2

    async def scenario():
        async with QueryServer(index, config=config) as server:
            reader, writer = await slow_reader(server)
            writer.write(line * flood)
            idle = await settled(server)
            statuses = [
                decode_line(await reader.readline())["status"]
                for _ in range(flood)
            ]
            answered = server.counters["error"]
            writer.close()

            # A second client queues real work behind a flood, then
            # resets the connection without reading any of it.
            reader, writer = await slow_reader(server)
            for position, query in enumerate(workload[:4]):
                writer.write(
                    encode_line({"id": position, **query_to_wire(query)})
                )
            writer.write(line * flood)
            await settled(server)
            writer.transport.abort()
            await asyncio.wait_for(server.drain(), timeout=10)
            inflight = server._inflight
        return idle, statuses, answered, inflight, server

    with caplog.at_level("WARNING", logger="asyncio"):
        idle, statuses, answered, inflight, server = run(scenario())
    assert idle <= bound + slack, f"{idle} responses queued for an idle client"
    assert statuses == ["error"] * flood and answered == flood
    assert inflight == 0
    assert server.counters["ok"] == 4
    assert not server._handlers and not server._writers
    assert "socket.send() raised exception" not in caplog.text


def test_stop_returns_despite_a_client_that_never_reads(index, caplog):
    """Regression: ``stop()`` hung on a connection whose client never
    reads.  Its pump sat in ``drain()``, ``close()`` waited on a flush
    that never came, and the cancelled handler blocked again on its
    full response queue (asyncio also logged ``Exception in
    callback``).  Straggler connections are now aborted."""

    async def scenario():
        server = QueryServer(
            index, config=ServeConfig(max_inflight=4, queue_limit=4)
        )
        await server.start()
        _, writer = await slow_reader(server)
        writer.write(UNREAD_LINE * UNREAD_FLOOD)
        await settled(server)
        try:
            await asyncio.wait_for(server.stop(), 8)
        finally:
            writer.transport.abort()
        return server

    with caplog.at_level("WARNING", logger="asyncio"):
        server = run(scenario())
    assert not server._handlers and not server._writers
    assert "Exception in callback" not in caplog.text


def test_inflight_cap_sheds(index, workload):
    async def scenario():
        # Two in-flight slots, one taken by the held request: the first
        # request waits in the other and everything after it is shed.
        config = ServeConfig(max_inflight=2, queue_limit=8)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                async with held_worker(server, workload[5]):
                    pipelined = asyncio.ensure_future(
                        client.pipeline(workload[:5])
                    )
                    await until(lambda: server.counters["shed"] == 4)
                return await asyncio.wait_for(pipelined, 10)

    payloads = run(scenario())
    statuses = [p["status"] for p in payloads]
    assert statuses[0] == "ok"
    assert statuses[1:] == ["shed"] * 4
    assert {p["reason"] for p in payloads[1:]} == {"inflight"}


def test_queue_bound_sheds(index, workload):
    async def scenario():
        # One queue place behind the held request: the first request
        # takes it and the rest are shed.
        config = ServeConfig(max_inflight=64, queue_limit=1)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                async with held_worker(server, workload[5]):
                    pipelined = asyncio.ensure_future(
                        client.pipeline(workload[:4])
                    )
                    await until(lambda: server.counters["shed"] == 3)
                return await asyncio.wait_for(pipelined, 10)

    payloads = run(scenario())
    statuses = [p["status"] for p in payloads]
    assert statuses[0] == "ok"
    assert statuses[1:] == ["shed"] * 3
    assert {p["reason"] for p in payloads[1:]} == {"queue"}


def test_expired_deadline_times_out_without_executing(index, workload):
    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as client:
                async with held_worker(server, workload[1]) as gate:
                    request = asyncio.ensure_future(
                        client.request(workload[0], deadline_ms=0.0)
                    )
                    await until(lambda: server._queue)
                payload = await asyncio.wait_for(request, 10)
            return payload, gate.executed

    payload, executed = run(scenario())
    assert payload["status"] == "timeout"
    assert executed == 1  # the held request alone reached execute


def test_client_query_raises_on_non_ok(index, workload):
    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as client:
                async with held_worker(server, workload[1]):
                    query = asyncio.ensure_future(
                        client.query(workload[0], deadline_ms=0.0)
                    )
                    await until(lambda: server._queue)
                await asyncio.wait_for(query, 10)

    with pytest.raises(ServeError, match="timeout"):
        run(scenario())


def test_serve_traces_validate_against_schema(index, workload):
    sink = MemorySink()

    async def scenario():
        # One in-flight slot beside the held request's: of six
        # pipelined requests the first runs and five are shed.
        config = ServeConfig(max_inflight=2, queue_limit=8)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                async with held_worker(server, workload[6]):
                    pipelined = asyncio.ensure_future(
                        client.pipeline(workload[:6])
                    )
                    await until(lambda: server.counters["shed"] == 5)
                await asyncio.wait_for(pipelined, 10)
            await server.drain()

    with tracing(Tracer(sink)):
        run(scenario())
    records = [json.loads(line) for line in sink.jsonl_lines()]
    validate_records(records)
    kinds = {record["kind"] for record in records}
    assert {"serve.request", "serve.shed"} <= kinds
    # Every response wrote exactly one serve.request record: the six
    # pipelined requests and the held one.
    assert sink.count("serve.request") == 7
    assert sink.count("serve.shed") == 5
    answered = [r for r in sink.of_kind("serve.request") if r["status"] == "ok"]
    assert len(answered) == 2
    assert all({"reads", "matches"} <= set(r) for r in answered)
    assert sum(r["reads"] for r in answered) > 0

    # Trace identity of candidate verification.  Untraced, a served
    # request verifies a posting run as one block; traced, it must emit
    # what the per-tid loop emits — one ``verify.random_access`` per
    # candidate, in run order, each *before* that tid's tuple-list page
    # access (cold store) or with no page access at all (warm store).
    # Reference: the same requests, in process, under the per-posting
    # reference strategies.
    queries = workload[:6]
    served_sink, reference_sink = MemorySink(), MemorySink()

    async def cold_then_warm():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as client:
                for query in queries + queries:
                    payload = await client.query(query)
                    assert payload["status"] == "ok"

    with tracing(Tracer(served_sink)):
        run(cold_then_warm())
    with reference_strategies(), tracing(Tracer(reference_sink)):
        executor = ServingExecutor(index, mode="serve")
        for query in queries + queries:
            executor.execute(query)

    def query_records(sink):
        records = [json.loads(line) for line in sink.jsonl_lines()]
        for record in records:
            del record["seq"]  # serve.* records take sequence numbers too
        return [r for r in records if not r["kind"].startswith("serve.")]

    served = query_records(served_sink)
    assert served == query_records(reference_sink)
    heap_pages = set(index._heap.state()["page_ids"])

    def heap_access(record):
        return (
            record["kind"] in ("pool.hit", "pool.miss")
            and record["page_id"] in heap_pages
        )

    decoded: set[int] = set()
    for at, record in enumerate(served):
        if record["kind"] == "verify.random_access":
            # First sight of a tid reads its heap page right after the
            # event; once in the store it reads nothing.
            assert heap_access(served[at + 1]) == (record["tid"] not in decoded)
            decoded.add(record["tid"])
        elif heap_access(record):
            assert served[at - 1]["kind"] == "verify.random_access"
    assert decoded
    warm_from = [
        at for at, r in enumerate(served) if r["kind"] == "query.begin"
    ][len(queries)]
    assert not any(heap_access(record) for record in served[warm_from:])


def test_measure_mode_over_the_wire(index, workload, expected):
    """The same wire protocol can run the paper's measurement protocol."""

    async def scenario():
        config = ServeConfig(mode="measure", pool_size=POOL_SIZE)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                return await client.pipeline(workload[:4])

    payloads = run(scenario())
    assert [p["mode"] for p in payloads] == ["measure"] * 4
    assert [p["matches"] for p in payloads] == expected[:4]


def test_stop_sheds_queued_requests(index, workload):
    """``stop()`` lets the executing request finish and answers the
    queued one ``shed`` / ``shutdown`` — a reply, never silence."""

    async def scenario():
        server = QueryServer(index, config=ServeConfig())
        await server.start()
        async with ServeClient(*server.address) as client:
            async with held_worker(server, workload[1]) as gate:
                queued = asyncio.ensure_future(client.request(workload[0]))
                await until(lambda: server._queue)
                stop = asyncio.create_task(server.stop())
                await until(lambda: not server._running)
            payload = await asyncio.wait_for(queued, 5.0)
            await asyncio.wait_for(stop, 5.0)
        return gate.reply, payload

    held, payload = run(scenario())
    assert held["status"] == "ok"
    assert payload == {"id": 1, "status": "shed", "reason": "shutdown"}
