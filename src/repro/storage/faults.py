"""Seeded fault injection for the simulated disk.

The storage substrate's I/O counts are the paper's entire evaluation
metric, yet a disk that never fails cannot demonstrate that the query
algorithms *detect* failure rather than silently returning wrong
answers.  This module supplies the failure modes a real device exhibits:

* **read errors** — the read raises :class:`TransientReadError`; a retry
  succeeds (the stored bytes are intact);
* **bit rot** — the read returns a copy with one flipped bit; the page's
  CRC32 checksum (see :class:`~repro.storage.disk.DiskManager`) catches
  it and the read raises :class:`ChecksumError`; a retry succeeds;
* **torn writes** — only a prefix of the page reaches the store while
  the checksum of the *intended* bytes is recorded, so every later read
  of the page fails its CRC check persistently (retries cannot help; the
  failure surfaces loudly).

Faults are drawn from a :class:`FaultPlan` — per-operation probabilities
plus a seed — by a per-disk :class:`FaultInjector`, so a given plan
produces the same fault sequence for a given disk regardless of process
layout (every worker entry point receives the resolved plan by value,
inside an :class:`~repro.exec.context.ExecContext`).

Injection never perturbs the simulated I/O counts: failed read attempts
are tracked as ``faults_injected`` / ``checksum_failures`` telemetry,
never as reads, so a zero-rate plan is byte-identical to no plan at all.

Configuration
-------------
``FaultPlan.from_env()`` reads the ``REPRO_FAULT_*`` knobs:

========================  =====================================================
``REPRO_FAULT_SEED``      integer RNG seed (default 0)
``REPRO_FAULT_READ_ERROR``  per-read probability of a transient read error
``REPRO_FAULT_TORN_WRITE``  per-write probability of a torn (partial) write
``REPRO_FAULT_BIT_ROT``     per-read probability of a flipped bit in flight
========================  =====================================================

Rates default to 0; a plan with all rates zero is disabled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.config import Knob, read_env_float, read_env_int
from repro.core.exceptions import QueryError, TransientReadError
from repro.storage.disk import DiskManager
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStatistics

#: Environment knobs (see module docstring).
FAULT_SEED_ENV = "REPRO_FAULT_SEED"
FAULT_READ_ERROR_ENV = "REPRO_FAULT_READ_ERROR"
FAULT_TORN_WRITE_ENV = "REPRO_FAULT_TORN_WRITE"
FAULT_BIT_ROT_ENV = "REPRO_FAULT_BIT_ROT"


@dataclass(frozen=True)
class FaultPlan:
    """Per-operation fault probabilities plus the seed that draws them."""

    seed: int = 0
    read_error_rate: float = 0.0
    torn_write_rate: float = 0.0
    bit_rot_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "torn_write_rate", "bit_rot_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise QueryError(f"{name} must lie in [0, 1], got {rate}")

    @property
    def enabled(self) -> bool:
        """Whether any fault can ever fire under this plan."""
        return (
            self.read_error_rate > 0.0
            or self.torn_write_rate > 0.0
            or self.bit_rot_rate > 0.0
        )

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULT_*`` environment knobs.

        A malformed value raises a
        :class:`~repro.core.exceptions.ConfigError` naming the variable;
        the upper bound on rates is :meth:`__post_init__`'s.
        """
        return cls(
            seed=read_env_int(FAULT_SEED_ENV) or 0,
            read_error_rate=read_env_float(FAULT_READ_ERROR_ENV, minimum=0.0)
            or 0.0,
            torn_write_rate=read_env_float(FAULT_TORN_WRITE_ENV, minimum=0.0)
            or 0.0,
            bit_rot_rate=read_env_float(FAULT_BIT_ROT_ENV, minimum=0.0) or 0.0,
        )


#: The fault-plan knob: ``DiskManager(fault_plan=...)`` >
#: :func:`fault_plan` / :func:`set_active_plan` > ``REPRO_FAULT_*`` (see
#: :class:`repro.core.config.Knob`).  New disks pick up
#: :func:`active_plan`; worker processes receive the resolved plan by
#: value inside an :class:`~repro.exec.context.ExecContext` rather than
#: re-reading the environment.
FAULT_PLAN = Knob(lambda plan: plan, FaultPlan.from_env)
active_plan = FAULT_PLAN.resolve
set_active_plan = FAULT_PLAN.set
fault_plan = FAULT_PLAN.override


class FaultInjector:
    """Draws per-operation faults for one disk from a :class:`FaultPlan`.

    Each disk owns its own injector seeded solely by the plan, so the
    fault sequence depends only on the disk's own operation order —
    deterministic across process layouts and ``--jobs`` counts.
    """

    __slots__ = ("plan", "_rng", "read_errors", "torn_writes", "bits_rotted")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.read_errors = 0
        self.torn_writes = 0
        self.bits_rotted = 0

    def before_read(self, page_id: int, stats: IOStatistics) -> None:
        """Maybe fail the read attempt (raises :class:`TransientReadError`)."""
        if self._rng.random() < self.plan.read_error_rate:
            self.read_errors += 1
            stats.record_fault()
            raise TransientReadError(
                f"injected read error on page {page_id} "
                f"(fault #{self.read_errors})"
            )

    def maybe_rot(self, data: bytes, stats: IOStatistics) -> bytes:
        """Maybe flip one bit of the *returned* copy (store stays intact)."""
        if self._rng.random() < self.plan.bit_rot_rate and data:
            self.bits_rotted += 1
            stats.record_fault()
            rotted = bytearray(data)
            position = self._rng.randrange(len(rotted))
            rotted[position] ^= 1 << self._rng.randrange(8)
            return bytes(rotted)
        return data

    def maybe_tear(self, data: bytes, old: bytes, stats: IOStatistics) -> bytes:
        """Maybe tear the write: a prefix of ``data`` over the rest of ``old``.

        The caller records the checksum of the intended ``data`` either
        way, so a torn page fails verification on every later read.
        """
        if self._rng.random() < self.plan.torn_write_rate and len(data) > 1:
            self.torn_writes += 1
            stats.record_fault()
            cut = self._rng.randrange(1, len(data))
            return data[:cut] + old[cut:]
        return data


class FaultyDisk(DiskManager):
    """A :class:`DiskManager` with an explicit, seeded fault plan.

    Sugar for tests and harnesses that want injection regardless of the
    environment: ``FaultyDisk(FaultPlan(seed=7, bit_rot_rate=0.01))``.
    """

    def __init__(
        self, plan: FaultPlan, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        super().__init__(page_size=page_size, fault_plan=plan)
