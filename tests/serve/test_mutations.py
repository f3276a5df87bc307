"""Serving-mode mutations over the wire (``docs/mutability.md``).

Three contracts beyond the basic round-trip:

* **Atomicity** — the server runs one request at a time on its one
  worker thread, so a concurrent reader sees the wholly-before or
  wholly-after answer set and nothing in between;
* **Cache invalidation** — the cross-request tuple-decode cache is
  stamped against ``index.mutations``; a delete is never served from a
  stale decoded tuple;
* **Compaction transparency** — compacting under live traffic changes
  the physical layout only: every in-flight and subsequent request
  answers identically.
"""

import asyncio

import pytest

from repro.core.queries import EqualityThresholdQuery, EqualityTopKQuery
from repro.core.uda import UncertainAttribute
from repro.exec.serving import ServingExecutor
from repro.serve import (
    Mutation,
    ProtocolError,
    QueryServer,
    ServeClient,
    ServeConfig,
    ServeError,
    mutation_from_wire,
    mutation_to_wire,
)
from repro.wal import WriteAheadLog

from tests.exec.test_batch import POOL_SIZE
from tests.invindex.conftest import random_relation
from repro.invindex import ProbabilisticInvertedIndex


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def relation():
    return random_relation(200, 12, seed=71)


@pytest.fixture
def index(relation, tmp_path):
    built = ProbabilisticInvertedIndex(len(relation.domain))
    built.build(relation)
    built.attach_wal(WriteAheadLog(tmp_path / "log.wal"))
    return built


def tid_set(payload):
    return {int(m[0]) for m in payload["matches"]}


class TestWireFormat:
    def test_round_trip_insert(self):
        uda = UncertainAttribute([2, 7], [0.75, 0.25])
        mutation = Mutation(op="insert", tid=9, uda=uda)
        decoded = mutation_from_wire(mutation_to_wire(mutation))
        assert decoded.op == "insert" and decoded.tid == 9
        assert decoded.uda.items.tolist() == [2, 7]

    def test_round_trip_delete_and_compact(self):
        for mutation in (Mutation(op="delete", tid=3), Mutation(op="compact")):
            decoded = mutation_from_wire(mutation_to_wire(mutation))
            assert decoded == mutation

    @pytest.mark.parametrize(
        "message",
        [
            {"mutate": "truncate"},
            {"mutate": "delete"},
            {"mutate": "delete", "tid": -1},
            {"mutate": "delete", "tid": True},
            {"mutate": "insert", "tid": 4},
            {"mutate": "insert", "tid": 4, "items": [1], "probs": [2.0]},
        ],
    )
    def test_malformed_mutations_are_loud(self, message):
        with pytest.raises(ProtocolError):
            mutation_from_wire(message)


class TestWireMutations:
    def test_insert_delete_compact_round_trip(self, index, relation):
        async def scenario():
            async with QueryServer(index, config=ServeConfig()) as server:
                async with ServeClient(*server.address) as client:
                    uda = relation.uda_of(0)
                    query = EqualityThresholdQuery(uda, 0.05)
                    new_tid = len(relation)
                    before = await client.query(query)

                    inserted = await client.insert(new_tid, uda)
                    assert inserted["op"] == "insert"
                    after = await client.query(query)
                    assert new_tid in tid_set(after)
                    assert new_tid not in tid_set(before)

                    deleted = await client.delete(new_tid)
                    assert deleted["op"] == "delete"
                    assert deleted["mutations"] > inserted["mutations"]
                    gone = await client.query(query)
                    assert tid_set(gone) == tid_set(before)

                    compacted = await client.compact()
                    assert compacted["op"] == "compact"
                    settled = await client.query(query)
                    assert settled["matches"] == before["matches"]

                    stats = await client.stats()
                    assert stats["counters"]["mutations"] == 3
        run(scenario())

    def test_mutation_errors_propagate(self, index):
        async def scenario():
            async with QueryServer(index, config=ServeConfig()) as server:
                async with ServeClient(*server.address) as client:
                    with pytest.raises(ServeError) as excinfo:
                        await client.delete(10**9)
                    assert excinfo.value.payload["status"] == "error"
                    # The connection survives a failed mutation.
                    pong = await client.ping()
                    assert pong["status"] == "ok"
        run(scenario())

    def test_readers_never_see_torn_insert(self, index, relation):
        """Concurrent queries see pre- or post-insert sets, never between.

        The inserted tuple matches the probe on two items; a torn write
        would surface it through one posting list but not the other,
        producing an answer set that is neither ``before`` nor
        ``after``.
        """
        probe_uda = UncertainAttribute([0, 1], [0.5, 0.5])
        query = EqualityThresholdQuery(probe_uda, 0.001)
        new_uda = UncertainAttribute([0, 1], [0.4, 0.6])
        new_tid = len(relation)

        async def reader(address, stop):
            observed = []
            async with ServeClient(*address) as client:
                while not stop.is_set():
                    observed.append(frozenset(tid_set(await client.query(query))))
            return observed

        async def scenario():
            config = ServeConfig()
            async with QueryServer(index, config=config) as server:
                async with ServeClient(*server.address) as writer:
                    before = frozenset(tid_set(await writer.query(query)))
                    stop = asyncio.Event()
                    readers = [
                        asyncio.create_task(reader(server.address, stop))
                        for _ in range(3)
                    ]
                    await asyncio.sleep(0.02)
                    await writer.insert(new_tid, new_uda)
                    await asyncio.sleep(0.02)
                    await writer.delete(new_tid)
                    await asyncio.sleep(0.02)
                    stop.set()
                    observations = await asyncio.gather(*readers)
            after = before | {new_tid}
            for observed in observations:
                assert observed, "reader made no observations"
                for snapshot in observed:
                    assert snapshot in (before, after), (
                        f"torn answer set: {sorted(snapshot ^ before)} differs"
                    )
        run(scenario())

    def test_delete_never_served_from_stale_cache(self, index, relation):
        """The decode cache must invalidate on the mutations stamp."""
        async def scenario():
            async with QueryServer(index, config=ServeConfig()) as server:
                async with ServeClient(*server.address) as client:
                    uda = relation.uda_of(3)
                    query = EqualityTopKQuery(uda, 10)
                    warm = await client.query(query)  # populates the cache
                    victim = sorted(tid_set(warm))[0]
                    await client.delete(victim)
                    cooled = await client.query(query)
                    assert victim not in tid_set(cooled)
        run(scenario())

    def test_compaction_under_live_traffic_preserves_answers(
        self, index, relation
    ):
        """Interleave compactions with a query stream; every response
        must match the sequential measurement-mode baseline."""
        queries = [
            EqualityThresholdQuery(relation.uda_of(tid), 0.05)
            for tid in range(0, 40, 4)
        ]
        # Churn first so compaction has segments and tombstones to fold.
        for tid in range(len(relation), len(relation) + 30):
            index.insert(tid, relation.uda_of(tid % len(relation)))
        for tid in range(len(relation), len(relation) + 30, 3):
            index.delete(tid)
        measure = ServingExecutor(index, mode="measure", pool_size=POOL_SIZE)
        expected = [
            [[m.tid, m.score] for m in measure.execute(q).result.matches]
            for q in queries
        ]

        async def querier(address, queries):
            answers = []
            async with ServeClient(*address) as client:
                for query in queries:
                    answers.append((await client.query(query))["matches"])
            return answers

        async def compactor(address, rounds):
            async with ServeClient(*address) as client:
                for _ in range(rounds):
                    await client.compact()
                    await asyncio.sleep(0.005)

        async def scenario():
            config = ServeConfig()
            async with QueryServer(index, config=config) as server:
                got, _ = await asyncio.gather(
                    querier(server.address, queries * 4),
                    compactor(server.address, 4),
                )
            assert got == expected * 4
        run(scenario())
