"""Tests for :class:`repro.exec.ExecContext` — the shipped settings.

The five ambient settings reach worker processes only through this
value, so three things must hold: it pickles, ``scope()`` installs
exactly what ``capture()`` resolved (and puts everything back), and a
worker started with ``spawn`` — which inherits no override — still runs
under the parent's settings.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.core import (
    EqualityThresholdQuery,
    EqualityTopKQuery,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
)
from repro.exec import (
    ExecContext,
    batch_override,
    join_block_override,
    resolve_batch,
    resolve_join_block,
)
from repro.shard import (
    LocalTransport,
    ProcessTransport,
    ShardCoordinator,
    ShardedIndex,
)
from repro.sketch import SketchParams, resolve_sketch, sketch_override
from repro.storage import (
    BackendSpec,
    FaultPlan,
    active_backend_spec,
    active_plan,
    backend_scope,
    fault_plan,
)

from tests.invindex.conftest import random_query, random_relation


def _resolved():
    return ExecContext(
        batch=resolve_batch(),
        join_block=resolve_join_block(),
        sketch=resolve_sketch(),
        backend=active_backend_spec(),
        fault_plan=active_plan(),
    )


NON_DEFAULT = ExecContext(
    batch=7,
    join_block=5,
    sketch="approx",
    backend=BackendSpec("mmap"),
    fault_plan=FaultPlan(seed=3, bit_rot_rate=0.25),
)


def test_pickle_round_trip():
    assert pickle.loads(pickle.dumps(NON_DEFAULT)) == NON_DEFAULT


def test_capture_resolves_every_override():
    with batch_override(7), join_block_override(
        5
    ), sketch_override("approx"), backend_scope("mmap"), fault_plan(
        NON_DEFAULT.fault_plan
    ):
        assert ExecContext.capture() == NON_DEFAULT
        # An explicit argument beats the override, as everywhere else.
        assert ExecContext.capture(batch=2).batch == 2


def test_capture_rejects_unknown_settings():
    with pytest.raises(KeyError):
        ExecContext.capture(batchsize=3)


@pytest.mark.parametrize("fail", [False, True])
def test_scope_installs_and_restores_every_setting(fail):
    before = _resolved()
    assert before != NON_DEFAULT
    try:
        with NON_DEFAULT.scope():
            assert _resolved() == NON_DEFAULT
            if fail:
                raise RuntimeError("boom")
    except RuntimeError:
        assert fail
    assert _resolved() == before


def test_protocol_keys():
    assert NON_DEFAULT.protocol() == {
        "batch": 7,
        "join_block": 5,
        "backend": "mmap",
        "sketch": "approx",
    }


def test_spawned_shard_workers_run_under_the_parents_overrides(tmp_path):
    """Regression: a worker entry point that shipped only some settings
    built on the default backend and probed with ``REPRO_SKETCH``
    unset under ``spawn``.  Each :class:`ProcessTransport` worker must
    build its shard inside the parent's :class:`ExecContext` — its page
    files land in the parent's mmap directory — and answer exactly as
    the in-process shards do under the same overrides."""
    relation = random_relation(60, 8, seed=3)
    queries = [
        EqualityThresholdQuery(random_query(8, seed=11), 0.1),
        EqualityTopKQuery(random_query(8, seed=12), 5),
        SimilarityThresholdQuery(random_query(8, seed=13), 0.9, "l1"),
        SimilarityTopKQuery(random_query(8, seed=14), 4, "l2"),
    ]

    def answers(transport):
        coordinator = ShardCoordinator(transport, fanout=1)
        return [
            [(m.tid, m.score) for m in coordinator.execute(query).matches]
            for query in queries
        ]

    previous = multiprocessing.get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    try:
        with batch_override(7), sketch_override(
            "exact"
        ), backend_scope(BackendSpec("mmap", directory=str(tmp_path))):
            sharded = ShardedIndex.build(
                relation, 2, sketch_params=SketchParams()
            )
            local = answers(LocalTransport(sharded))
            with ProcessTransport.from_sharded_index(sharded) as transport:
                spawned = answers(transport)
                writers = {
                    path.name.split("-")[1]
                    for path in tmp_path.glob("disk-*.pages")
                }
    finally:
        multiprocessing.set_start_method(previous, force=True)
    # Page files are named disk-<pid>-<n>: the parent's own shards plus
    # one builder process per shard.
    assert len(writers - {str(os.getpid())}) == 2
    assert spawned == local
