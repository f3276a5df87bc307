"""Process and serve transports, and the shed/requeue round protocol."""

import pytest

from repro.core import EqualityThresholdQuery, EqualityTopKQuery
from repro.core.exceptions import QueryError
from repro.obs.metrics import METRICS
from repro.shard import (
    LocalTransport,
    ProcessTransport,
    ServeTransport,
    ShardCluster,
    ShardCoordinator,
    ShardProbe,
    ShardedIndex,
)

from tests.invindex.conftest import random_query
from tests.shard.conftest import POOL_SIZE, answer_key, mixed_workload

STRATEGY = "highest_prob_first"


@pytest.fixture(scope="module")
def sharded(relation):
    return ShardedIndex.build(relation, 2, strategy=STRATEGY)


@pytest.fixture(scope="module")
def local_results(relation, sharded):
    coordinator = ShardCoordinator(
        LocalTransport(sharded, pool_size=POOL_SIZE), fanout=1
    )
    return [
        (answer_key(result.matches), result.reads)
        for result in map(
            coordinator.execute, mixed_workload(len(relation.domain))
        )
    ]


class FlakyTransport:
    """Wraps LocalTransport; sheds shard 1's first deadline probe."""

    name = "flaky"
    remote = False

    def __init__(self, inner):
        self.inner = inner
        self.attempted: set[int] = set()
        self.shed_count = 0

    @property
    def num_shards(self):
        return self.inner.num_shards

    def probe_many(
        self,
        shard_ids,
        query,
        tau_floor=0.0,
        deadline_ms=None,
        sketch=None,
        div_ceiling=None,
    ):
        probes = []
        for shard in shard_ids:
            first = shard not in self.attempted
            self.attempted.add(shard)
            if first and deadline_ms is not None and shard == 1:
                self.shed_count += 1
                probes.append(
                    ShardProbe(shard=shard, matches=[], timed_out=True)
                )
            else:
                probes.append(
                    self.inner.probe_many(
                        [shard],
                        query,
                        tau_floor,
                        None,
                        sketch=sketch,
                        div_ceiling=div_ceiling,
                    )[0]
                )
        return probes


def test_process_transport_matches_local(relation, sharded, local_results):
    with ProcessTransport.from_sharded_index(
        sharded, pool_size=POOL_SIZE
    ) as transport:
        coordinator = ShardCoordinator(transport, fanout=1)
        for query, (answers, reads) in zip(
            mixed_workload(len(relation.domain)), local_results
        ):
            result = coordinator.execute(query)
            assert answer_key(result.matches) == answers
            assert result.reads == reads


def test_process_transport_merges_worker_metrics(relation, sharded):
    with ProcessTransport.from_sharded_index(
        sharded, pool_size=POOL_SIZE
    ) as transport:
        coordinator = ShardCoordinator(transport, fanout=1)
        before = METRICS.snapshot()
        coordinator.execute(
            EqualityTopKQuery(random_query(len(relation.domain), seed=3), 5)
        )
        delta = METRICS.delta_since(before)
    # Probes ran in worker processes, yet their executor-level events
    # land in this process's registry via the probe's metrics delta.
    assert delta.get("shard.probe", 0) == 2
    assert any(
        kind.startswith(("strategy.", "query.")) for kind in delta
    ), delta


def test_serve_transport_matches_local(relation, sharded, local_results):
    with ShardCluster(sharded) as cluster:
        with ServeTransport(cluster.addresses) as transport:
            coordinator = ShardCoordinator(transport, fanout=1)
            for query, (answers, reads) in zip(
                mixed_workload(len(relation.domain)), local_results
            ):
                result = coordinator.execute(query)
                assert answer_key(result.matches) == answers
                assert result.reads == reads


def test_serve_transport_sheds_then_recovers(relation, sharded):
    """A sub-microsecond wire deadline sheds the first probes; the
    requeued retries run deadline-free, so the answer stays exact."""
    query = EqualityTopKQuery(random_query(len(relation.domain), seed=9), 7)
    single = ShardCoordinator(
        LocalTransport(sharded, pool_size=POOL_SIZE)
    ).execute(query)
    with ShardCluster(sharded) as cluster:
        with ServeTransport(cluster.addresses) as transport:
            coordinator = ShardCoordinator(
                transport, fanout=1, round_deadline_ms=1e-6
            )
            result = coordinator.execute(query)
    assert answer_key(result.matches) == answer_key(single.matches)
    assert result.timeouts >= 1


def test_shed_probes_are_requeued_with_raised_floor(relation, sharded):
    inner = LocalTransport(sharded, pool_size=POOL_SIZE)
    flaky = FlakyTransport(inner)
    coordinator = ShardCoordinator(
        flaky, fanout=2, round_deadline_ms=50.0
    )
    query = EqualityTopKQuery(random_query(len(relation.domain), seed=21), 6)
    single = ShardCoordinator(inner).execute(query)
    result = coordinator.execute(query)
    assert flaky.shed_count == 1
    assert result.timeouts == 1
    assert result.rounds == 2
    assert answer_key(result.matches) == answer_key(single.matches)


def test_shed_threshold_probe_still_merges_every_shard(relation, sharded):
    inner = LocalTransport(sharded, pool_size=POOL_SIZE)
    flaky = FlakyTransport(inner)
    coordinator = ShardCoordinator(flaky, round_deadline_ms=50.0)
    query = EqualityThresholdQuery(
        random_query(len(relation.domain), seed=22), 0.05
    )
    single = ShardCoordinator(inner).execute(query)
    result = coordinator.execute(query)
    assert result.timeouts == 1
    assert answer_key(result.matches) == answer_key(single.matches)


def test_coordinator_validates_parameters(sharded):
    transport = LocalTransport(sharded)
    with pytest.raises(QueryError):
        ShardCoordinator(transport, fanout=0)
    with pytest.raises(QueryError):
        ShardCoordinator(transport, round_deadline_ms=0.0)
    assert ShardCoordinator(transport, fanout=99).fanout == 2
