"""The ambient execution settings as one value that ships to workers.

Five settings change how a probe executes without being arguments of
the probe: the batch size, the join block size, the sketch mode, the
storage backend and the fault plan.  Each is one
:class:`~repro.core.config.Knob` in the module that owns it
(``docs/architecture.md``, "Configuration").  A worker process inherits
neither the parent's scoped overrides nor — under the ``spawn`` start
method — anything but its environment, so every worker entry point
(:func:`repro.bench.parallel._run_one`, the
:class:`~repro.shard.transport.ProcessTransport` workers) takes one
:class:`ExecContext`, captured in the parent, and runs inside
:meth:`ExecContext.scope`: all five by value, never via environment
re-reads.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.exec.batch import BATCH
from repro.exec.join import JOIN_BLOCK
from repro.sketch.config import SKETCH
from repro.storage.backends import BACKEND, BackendSpec
from repro.storage.faults import FAULT_PLAN, FaultPlan

#: The knob behind each :class:`ExecContext` field.
_KNOBS = {
    "batch": BATCH,
    "join_block": JOIN_BLOCK,
    "sketch": SKETCH,
    "backend": BACKEND,
    "fault_plan": FAULT_PLAN,
}


@dataclass(frozen=True)
class ExecContext:
    """The five resolved ambient settings; frozen and picklable."""

    batch: int
    join_block: int
    sketch: str
    backend: BackendSpec
    fault_plan: FaultPlan

    @classmethod
    def capture(cls, **explicit) -> "ExecContext":
        """Resolve every setting once, in this process, right now.

        ``explicit`` carries a caller's own arguments by field name
        (``capture(batch=args.batch)``); ``None`` or absent defers to
        the override / environment / default chain.
        """
        values = {**dict.fromkeys(_KNOBS), **explicit}
        return cls(
            **{
                name: _KNOBS[name].resolve(value)
                for name, value in values.items()
            }
        )

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Install all five values as overrides for a block."""
        with ExitStack() as stack:
            for name, knob in _KNOBS.items():
                stack.enter_context(knob.override(getattr(self, name)))
            yield

    def protocol(self) -> dict:
        """The ``BENCH_summary.json`` protocol keys these settings own.

        ``compare_io.py`` refuses to diff result dirs whose keys
        conflict.  The fault plan is not one: injection never perturbs
        the simulated I/O counts.  ``mode`` / ``shards`` / ``transport``
        describe the run, not the ambient settings, and are the
        caller's to add.
        """
        return {
            "batch": self.batch,
            "join_block": self.join_block,
            "backend": self.backend.name,
            "sketch": self.sketch,
        }
