"""The shard.* trace family conforms to the published schema."""

from repro.core import EqualityThresholdQuery, EqualityTopKQuery
from repro.obs.schema import validate_records
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.shard import (
    LocalTransport,
    ShardCoordinator,
    ShardProbe,
    ShardedIndex,
)

from tests.invindex.conftest import random_query
from tests.shard.conftest import POOL_SIZE


class SheddingTransport:
    """LocalTransport that sheds every first deadline probe once."""

    name = "shedding"
    remote = False

    def __init__(self, inner):
        self.inner = inner
        self.attempted = set()

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
            if deadline_ms is not None and shard not in self.attempted:
                self.attempted.add(shard)
                probes.append(
                    ShardProbe(shard=shard, matches=[], timed_out=True)
                )
            else:
                probes.append(
                    self.inner.probe_many(
                        [shard],
                        query,
                        tau_floor,
                        sketch=sketch,
                        div_ceiling=div_ceiling,
                    )[0]
                )
        return probes


def _traced(coordinator, query):
    sink = MemorySink()
    with tracing(Tracer(sink)):
        coordinator.execute(query)
    validate_records(sink.records)
    return [record["kind"] for record in sink.records]


def test_topk_rounds_emit_schema_valid_records(relation):
    sharded = ShardedIndex.build(relation, 3, strategy="row_pruning")
    coordinator = ShardCoordinator(
        LocalTransport(sharded, pool_size=POOL_SIZE), fanout=1
    )
    kinds = _traced(
        coordinator,
        EqualityTopKQuery(random_query(len(relation.domain), seed=11), 5),
    )
    assert kinds.count("shard.begin") == 1
    assert kinds.count("shard.round") == 3
    assert kinds.count("shard.probe") == 3
    assert kinds.count("shard.end") == 1
    # Probe-internal instrumentation is traced too, inline.
    assert "measure.begin" not in kinds  # probes are not measure_query runs
    assert kinds.index("shard.begin") < kinds.index("shard.end")


def test_shed_and_threshold_records_validate(relation):
    sharded = ShardedIndex.build(relation, 2, strategy="row_pruning")
    transport = SheddingTransport(
        LocalTransport(sharded, pool_size=POOL_SIZE)
    )
    coordinator = ShardCoordinator(transport, round_deadline_ms=25.0)
    kinds = _traced(
        coordinator,
        EqualityThresholdQuery(
            random_query(len(relation.domain), seed=12), 0.05
        ),
    )
    assert kinds.count("shard.shed") == 2
    assert kinds.count("shard.probe") == 2
    assert kinds.count("shard.round") == 2
