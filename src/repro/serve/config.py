"""Serving configuration and its ``REPRO_SERVE_*`` environment knobs.

Every knob goes through the shared hardened parsers in
:mod:`repro.core.config`, so a malformed value raises
:class:`repro.core.exceptions.ConfigError` naming the offending
variable instead of crashing the server with a bare ``ValueError``
somewhere inside ``asyncio``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import parse_float_knob, parse_int_knob, read_env_int
from repro.core.exceptions import ConfigError
from repro.exec.serving import DEFAULT_SERVE_POOL_SIZE, MODES

#: Environment knobs (all optional; defaults below).
MODE_ENV = "REPRO_SERVE_MODE"
POOL_ENV = "REPRO_SERVE_POOL"
INFLIGHT_ENV = "REPRO_SERVE_INFLIGHT"
QUEUE_ENV = "REPRO_SERVE_QUEUE"
DEADLINE_MS_ENV = "REPRO_SERVE_DEADLINE_MS"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`repro.serve.server.QueryServer`.

    Attributes
    ----------
    host, port:
        Bind address.  Port 0 asks the OS for an ephemeral port (the
        bound port is reported by ``QueryServer.address`` after start).
    mode:
        ``"serve"`` (warm shared pool — the point of the server) or
        ``"measure"`` (fresh pool per query; useful for differential
        testing against the paper protocol over the same wire).
    pool_size:
        Frame budget for the serving pool (or each per-query pool in
        measure mode).
    max_inflight:
        Admission cap on requests admitted but not yet answered
        (queued + executing).  Arrivals past the cap are shed with
        reason ``"inflight"``.
    queue_limit:
        Bound on the wait queue alone; arrivals finding it full are
        shed with reason ``"queue"``.
    deadline_ms:
        Default per-request deadline, applied when the request carries
        none.  ``None`` means no default deadline.  Deadlines are
        enforced at dequeue time: a request that waited past its
        deadline is answered ``"timeout"`` without executing —
        execution itself is never preempted.
    strategy:
        Inverted-index search strategy (``None`` = index default, and
        required to be ``None`` for a PDR-tree).
    """

    host: str = "127.0.0.1"
    port: int = 0
    mode: str = "serve"
    pool_size: int = DEFAULT_SERVE_POOL_SIZE
    max_inflight: int = 64
    queue_limit: int = 256
    deadline_ms: float | None = 1000.0
    strategy: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(
                f"{MODE_ENV} must be one of {MODES}, got {self.mode!r}"
            )
        parse_int_knob(self.pool_size, POOL_ENV, minimum=1)
        parse_int_knob(self.max_inflight, INFLIGHT_ENV, minimum=1)
        parse_int_knob(self.queue_limit, QUEUE_ENV, minimum=1)
        if self.deadline_ms is not None:
            parse_float_knob(self.deadline_ms, DEADLINE_MS_ENV, minimum=0.0)

    @classmethod
    def from_env(cls, environ=None, **overrides) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` knobs plus overrides.

        Explicit keyword overrides win over the environment.  The
        deadline knob accepts ``off``/``none`` for "no default
        deadline".
        """
        import os

        env = os.environ if environ is None else environ
        values: dict = {}
        mode = env.get(MODE_ENV)
        if mode is not None:
            values["mode"] = mode.strip().lower()
        pool = read_env_int(POOL_ENV, minimum=1, environ=env)
        if pool is not None:
            values["pool_size"] = pool
        inflight = read_env_int(INFLIGHT_ENV, minimum=1, environ=env)
        if inflight is not None:
            values["max_inflight"] = inflight
        queue = read_env_int(QUEUE_ENV, minimum=1, environ=env)
        if queue is not None:
            values["queue_limit"] = queue
        raw_deadline = env.get(DEADLINE_MS_ENV)
        if raw_deadline is not None:
            if raw_deadline.strip().lower() in ("off", "none", ""):
                values["deadline_ms"] = None
            else:
                values["deadline_ms"] = parse_float_knob(
                    raw_deadline, DEADLINE_MS_ENV, minimum=0.0
                )
        values.update(overrides)
        return cls(**values)

    def with_overrides(self, **overrides) -> "ServeConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)
