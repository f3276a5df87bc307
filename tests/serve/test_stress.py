"""Concurrency stress tests for the query service (ISSUE 6, satellite 3).

Many asyncio clients fire a mixed PEQ/PETQ/top-k workload at one
server.  The contracts under load: every ``ok`` answer is identical to
sequential measurement-mode execution; the warm pool's pin counts are
balanced when the server quiesces; and admission control past the
in-flight cap sheds requests rather than corrupting any answer.
"""

import asyncio

import pytest

from repro.core import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    WindowedEqualityQuery,
)
from repro.exec import ServingExecutor
from repro.invindex import ProbabilisticInvertedIndex
from repro.serve import QueryServer, ServeClient, ServeConfig

from tests.exec.test_batch import POOL_SIZE
from tests.invindex.conftest import random_query, random_relation
from tests.serve.gate import held_worker, until

NUM_CLIENTS = 6
QUERIES_PER_CLIENT = 8


@pytest.fixture(scope="module")
def relation():
    return random_relation(300, 14, seed=17)


@pytest.fixture(scope="module")
def index(relation):
    built = ProbabilisticInvertedIndex(len(relation.domain))
    built.build(relation)
    return built


@pytest.fixture(scope="module")
def workload(relation):
    """Mixed PEQ / PETQ / top-k / windowed queries, one slice per client."""
    queries = []
    for i in range(NUM_CLIENTS * QUERIES_PER_CLIENT):
        q = random_query(len(relation.domain), seed=100 + i)
        if i % 4 == 0:
            queries.append(EqualityQuery(q))
        elif i % 4 == 1:
            queries.append(EqualityThresholdQuery(q, 0.05))
        elif i % 4 == 2:
            queries.append(EqualityTopKQuery(q, 1 + i % 5))
        else:
            queries.append(WindowedEqualityQuery(q, 0.05, 1))
    return queries


@pytest.fixture(scope="module")
def expected(index, workload):
    """Sequential measurement-mode answers: the identity baseline."""
    measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
    return [
        [[m.tid, m.score] for m in measure.execute(q).result.matches]
        for q in workload
    ]


def slices(workload):
    return [
        workload[c * QUERIES_PER_CLIENT:(c + 1) * QUERIES_PER_CLIENT]
        for c in range(NUM_CLIENTS)
    ]


def test_concurrent_clients_match_sequential_measurement(
    index, workload, expected
):
    async def one_client(address, queries):
        async with ServeClient(*address) as client:
            return await client.pipeline(queries)

    async def scenario():
        async with QueryServer(index, config=ServeConfig()) as server:
            results = await asyncio.gather(
                *(one_client(server.address, s) for s in slices(workload))
            )
            await server.drain()
            # Pin balance at quiesce: no page survives with a pin, and
            # every buffer-pool invariant holds.
            server.executor.check_quiesced()
            counters = dict(server.counters)
        return results, counters

    results, counters = asyncio.run(scenario())
    flat = [payload for client in results for payload in client]
    assert [p["status"] for p in flat] == ["ok"] * len(workload)
    for client_idx, payloads in enumerate(results):
        base = client_idx * QUERIES_PER_CLIENT
        for offset, payload in enumerate(payloads):
            assert payload["matches"] == expected[base + offset], (
                f"client {client_idx} query {offset} diverged"
            )
    assert counters["ok"] == len(workload)
    assert counters["shed"] == counters["timeout"] == counters["error"] == 0


def test_overload_sheds_but_never_corrupts(index, workload, expected):
    async def one_client(address, queries):
        async with ServeClient(*address) as client:
            return await client.pipeline(queries)

    async def scenario():
        config = ServeConfig(max_inflight=4, queue_limit=4)
        async with QueryServer(index, config=config) as server:
            # The clients submit while the worker is held, so the cap
            # turns requests away for certain.
            async with held_worker(server, workload[0]):
                clients = asyncio.gather(
                    *(one_client(server.address, s) for s in slices(workload))
                )
                await until(lambda: server.counters["shed"] > 0)
            results = await asyncio.wait_for(clients, 30)
            await server.drain()
            server.executor.check_quiesced()
            counters = dict(server.counters)
        return results, counters

    results, counters = asyncio.run(scenario())
    flat = [payload for client in results for payload in client]
    statuses = {p["status"] for p in flat}
    assert statuses <= {"ok", "shed", "timeout"}
    # Overload was real: the cap turned some requests away...
    assert counters["shed"] > 0
    assert {p.get("reason") for p in flat if p["status"] == "shed"} <= {
        "inflight", "queue"
    }
    # ...yet every served answer is still byte-identical to sequential
    # measurement-mode execution.
    served_ok = 0
    for client_idx, payloads in enumerate(results):
        base = client_idx * QUERIES_PER_CLIENT
        for offset, payload in enumerate(payloads):
            if payload["status"] == "ok":
                served_ok += 1
                assert payload["matches"] == expected[base + offset]
    # The held request is the one ok answer no client asked for.
    assert served_ok == counters["ok"] - 1 > 0
    assert (
        counters["ok"] + counters["shed"] + counters["timeout"]
        == len(workload) + 1
    )
