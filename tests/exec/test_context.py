"""Tests for :class:`repro.exec.ExecContext` — the shipped settings.

The five ambient settings reach worker processes only through this
value, so three things must hold: it pickles, ``scope()`` installs
exactly what ``capture()`` resolved (and puts everything back), and a
worker started with ``spawn`` — which inherits no override — still runs
under the parent's settings.
"""

import multiprocessing
import pickle
from functools import partial

import pytest

from repro.exec import (
    ExecContext,
    batch_override,
    join_block_override,
    parallel_join,
    resolve_batch,
    resolve_join_block,
)
from repro.invindex import ProbabilisticInvertedIndex
from repro.sketch import resolve_sketch, sketch_override
from repro.storage import (
    BackendSpec,
    FaultPlan,
    active_backend_spec,
    active_plan,
    backend_scope,
    fault_plan,
)

from tests.invindex.conftest import random_relation


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


def _checked_build(expected, relation):
    """A ``build_index`` that refuses to run under foreign settings.

    Module-level (and carried in a ``partial``) so spawned workers can
    unpickle it; raising here fails the worker's future, which
    ``parallel_join`` re-raises in the parent.
    """
    actual = (resolve_batch(), resolve_sketch(), active_backend_spec())
    if actual != expected:
        raise AssertionError(
            f"worker resolved {actual}, the parent had {expected}"
        )
    index = ProbabilisticInvertedIndex(len(relation.domain))
    index.build(relation)
    index.build_sketch()
    return index


def test_spawned_join_workers_run_under_the_parents_overrides(tmp_path):
    """Regression: ``_run_join_chunk`` shipped only some settings and
    dropped backend and sketch, so under ``spawn`` DSTJ workers built on
    the default backend and probed with ``REPRO_SKETCH`` unset.  The
    batch size stands in for the settings it did ship."""
    relation = random_relation(24, 8, seed=3)
    previous = multiprocessing.get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    try:
        with batch_override(7), sketch_override(
            "exact"
        ), backend_scope(BackendSpec("mmap", directory=str(tmp_path))):
            expected = (resolve_batch(), resolve_sketch(), active_backend_spec())
            join = partial(
                parallel_join,
                "dstj",
                relation,
                relation,
                build_index=partial(_checked_build, expected),
                threshold=0.9,
                block_size=4,
                pool_size=16,
            )
            spawned = join(jobs=2)
            inline = join(jobs=1)
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert spawned.pairs == inline.pairs
    assert spawned.num_probes == inline.num_probes == len(relation)
