"""Per-request deadlines and tau floors on the pipelined client.

The shard coordinator is the first pipelined caller that mixes, in one
round trip, requests that must be shed quickly with requests that must
run — so the client's per-request ``deadline_ms`` list and ``tau_floors``
are regression-tested here against the shed-vs-hang failure mode: a
straggling shard must come back as a ``"timeout"`` answer, never as a
stalled pipeline.
"""

import asyncio

import pytest

from repro.core import EqualityTopKQuery, SimilarityTopKQuery
from repro.exec import ServingExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.serve import QueryServer, ServeClient, ServeConfig
from repro.serve.protocol import ProtocolError, matches_to_wire, query_to_wire

from tests.invindex.conftest import random_query, random_relation
from tests.serve.gate import held_worker, until

POOL_SIZE = 100


@pytest.fixture(scope="module")
def index():
    relation = random_relation(250, 12, seed=93)
    built = ProbabilisticInvertedIndex(len(relation.domain))
    built.build(relation)
    return built


@pytest.fixture(scope="module")
def queries():
    return [
        EqualityTopKQuery(random_query(12, seed=400 + i), 3 + i) for i in range(4)
    ]


def run(coro):
    return asyncio.run(coro)


def test_pipeline_mixed_deadlines_shed_not_hang(index, queries):
    """An expired per-request deadline answers "timeout" in-line while
    its deadline-free neighbours execute — the pipeline never stalls."""

    async def scenario():
        config = ServeConfig(mode="measure", pool_size=POOL_SIZE)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                # All four wait behind a held request, so the two with
                # a zero deadline have expired by the time they dequeue.
                async with held_worker(server, queries[0]):
                    pipelined = asyncio.ensure_future(
                        client.pipeline(
                            queries, deadline_ms=[None, 0.0, None, 0.0]
                        )
                    )
                    await until(lambda: len(server._queue) == len(queries))
                return await asyncio.wait_for(pipelined, timeout=30.0)

    payloads = run(scenario())
    assert [p["status"] for p in payloads] == [
        "ok", "timeout", "ok", "timeout"
    ]


def test_pipeline_deadline_list_must_align(index, queries):
    async def scenario():
        config = ServeConfig(mode="measure", pool_size=POOL_SIZE)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                await client.pipeline(queries, deadline_ms=[None])

    with pytest.raises(ProtocolError, match="deadline_ms"):
        run(scenario())


def test_floored_topk_answers_match_unfloored_below_kth(index, queries):
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)

    async def scenario(query, floor):
        config = ServeConfig(mode="measure", pool_size=POOL_SIZE)
        async with QueryServer(index, config=config) as server:
            async with ServeClient(*server.address) as client:
                return await client.request(query, tau_floor=floor)

    for query in queries:
        expected = measure.execute(query)
        kth = expected.result.matches[-1].score
        payload = run(scenario(query, kth))
        assert payload["status"] == "ok"
        assert payload["matches"] == matches_to_wire(expected.result)


def test_requests_with_different_bounds_keep_their_own(index, queries):
    """Pushed-down bounds are per-request data: floored top-k,
    ceilinged similarity top-k and plain requests arriving together on
    their own connections are each answered under their own bounds."""
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    similar = [
        SimilarityTopKQuery(random_query(12, seed=500 + i), 4 + i)
        for i in range(3)
    ]
    # Distinct bounds, each midway through the request's own unbounded
    # answer (similarity scores are negated divergences).
    def midway(query):
        matches = measure.execute(query).result.matches
        return abs(matches[0].score + matches[-1].score) / 2

    requests = (
        [(q, {"tau_floor": midway(q)}) for q in queries]
        + [(q, {"div_ceiling": midway(q)}) for q in similar]
        + [(q, {}) for q in queries[:2]]
    )
    bounded = [at for at, (_, pushed) in enumerate(requests) if pushed]
    assert len({tuple(requests[at][1].items()) for at in bounded}) == len(
        bounded
    )
    executed = []

    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            execute = server.executor.execute

            def recording(query, **pushed):
                executed.append((query_to_wire(query), pushed))
                return execute(query, **pushed)

            server.executor.execute = recording
            clients = [
                await ServeClient(*server.address).connect() for _ in requests
            ]
            try:
                return await asyncio.gather(
                    *(
                        client.request(query, **pushed)
                        for client, (query, pushed) in zip(clients, requests)
                    )
                )
            finally:
                for client in clients:
                    await client.close()

    payloads = run(scenario())
    assert [p["status"] for p in payloads] == ["ok"] * len(requests)
    for (query, pushed), payload in zip(requests, payloads):
        own = measure.execute(query, **pushed).result
        assert payload["matches"] == matches_to_wire(own)
    # Every request reached the index under its own bounds, no other's.
    unbounded = {"tau_floor": 0.0, "sketch": None, "div_ceiling": None}

    def canonical(calls):
        return sorted(
            (str(wire), sorted(pushed.items(), key=str))
            for wire, pushed in calls
        )

    assert canonical(executed) == canonical(
        (query_to_wire(q), {**unbounded, **pushed}) for q, pushed in requests
    )


def test_refused_request_fails_alone(index, queries):
    """A request the index refuses at execution time (an explicit
    sketch mode on an index built without a sketch) is answered
    ``"error"``; the requests arriving beside it still run."""
    similar = SimilarityTopKQuery(random_query(12, seed=600), 3)

    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            async with ServeClient(*server.address) as refused:
                async with ServeClient(*server.address) as client:
                    return await asyncio.gather(
                        refused.request(similar, sketch="exact"),
                        client.pipeline(queries),
                    )

    error, payloads = run(scenario())
    assert error["status"] == "error" and "sketch" in error["error"]
    assert [p["status"] for p in payloads] == ["ok"] * len(queries)
