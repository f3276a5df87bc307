"""Shared parsing and precedence for ``REPRO_*`` environment knobs.

Every execution knob in the repository — ``REPRO_BATCH``,
``REPRO_JOIN_BLOCK``, ``REPRO_SKETCH``,
``REPRO_BACKEND``, the ``REPRO_FAULT_*`` and ``REPRO_SERVE_*`` families,
``REPRO_JOBS``, ``REPRO_DECODED_CACHE`` — funnels through the readers
here, so a malformed value always fails the same way: a
:class:`~repro.core.exceptions.ConfigError` (a :class:`ValueError`)
whose message *names the variable*, never a bare ``int()`` traceback
that leaves the operator grepping for which of a dozen knobs was wrong.

The readers normalize the raw string (strip + casefold) and support
per-knob *special words* ("off", "auto", "default", ...) that map to
sentinel values, because several knobs accept an English word alongside
an integer.  A special word may map to ``None``, meaning "treat as
unset" — the caller then applies its own computed default.

:class:`Knob` is the one implementation of the precedence every
*ambient* setting follows — explicit argument > scoped override >
environment > default.  The five settings that change how a probe
executes each declare one instance in the module that owns them and
bind their public names to its methods; ``docs/architecture.md``
("Configuration") lists them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from repro.core.exceptions import ConfigError

__all__ = [
    "ConfigError",
    "Knob",
    "int_knob",
    "choice_knob",
    "parse_int_knob",
    "parse_float_knob",
    "parse_choice_knob",
    "read_env_int",
    "read_env_float",
    "read_env_choice",
]


def parse_int_knob(
    raw: int | str, name: str, *, minimum: int | None = None
) -> int:
    """Parse an integer knob value, naming ``name`` in every error.

    ``raw`` may already be an int (programmatic callers share the same
    range validation as the environment path).  ``bool`` is rejected:
    ``REPRO_JOBS=True`` is a bug, not a worker count.
    """
    if isinstance(raw, bool):
        raise ConfigError(f"{name} must be an integer, got {raw!r}")
    if isinstance(raw, int):
        value = raw
    else:
        try:
            value = int(str(raw).strip())
        except ValueError:
            raise ConfigError(
                f"{name} must be an integer, got {raw!r}"
            ) from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def parse_float_knob(
    raw: float | str, name: str, *, minimum: float | None = None
) -> float:
    """Parse a float knob value, naming ``name`` in every error."""
    if isinstance(raw, bool):
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    if isinstance(raw, (int, float)):
        value = float(raw)
    else:
        try:
            value = float(str(raw).strip())
        except ValueError:
            raise ConfigError(
                f"{name} must be a number, got {raw!r}"
            ) from None
    if value != value:  # NaN never satisfies a range check
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def parse_choice_knob(
    raw: str, name: str, *, choices: tuple[str, ...]
) -> str:
    """Parse an enumerated knob value, naming ``name`` in every error.

    The value is normalized (strip + casefold) before matching, so
    ``REPRO_BACKEND=MMap`` selects ``mmap``.
    """
    value = str(raw).strip().lower()
    if value not in choices:
        raise ConfigError(
            f"{name} must be one of {', '.join(choices)}, got {raw!r}"
        )
    return value


def _normalized(name: str, environ: Mapping[str, str] | None) -> str:
    source = os.environ if environ is None else environ
    return source.get(name, "").strip().lower()


def read_env_int(
    name: str,
    *,
    minimum: int | None = None,
    special: Mapping[str, int | None] | None = None,
    environ: Mapping[str, str] | None = None,
) -> int | None:
    """Read and parse an integer environment knob.

    Returns ``None`` when the variable is unset/empty (unless ``special``
    maps ``""`` elsewhere) so the caller can apply its default.
    ``special`` maps normalized words to values; a ``None`` value means
    "treat this word as unset" too.
    """
    raw = _normalized(name, environ)
    if special is not None and raw in special:
        return special[raw]
    if raw == "":
        return None
    return parse_int_knob(raw, name, minimum=minimum)


def read_env_choice(
    name: str,
    *,
    choices: tuple[str, ...],
    special: Mapping[str, str | None] | None = None,
    environ: Mapping[str, str] | None = None,
) -> str | None:
    """Read an enumerated environment knob (see :func:`read_env_int`).

    Returns ``None`` when unset/empty; an unknown value raises a
    :class:`ConfigError` naming the variable and listing the choices.
    """
    raw = _normalized(name, environ)
    if special is not None and raw in special:
        return special[raw]
    if raw == "":
        return None
    return parse_choice_knob(raw, name, choices=choices)


def read_env_float(
    name: str,
    *,
    minimum: float | None = None,
    special: Mapping[str, float | None] | None = None,
    environ: Mapping[str, str] | None = None,
) -> float | None:
    """Read and parse a float environment knob (see :func:`read_env_int`)."""
    raw = _normalized(name, environ)
    if special is not None and raw in special:
        return special[raw]
    if raw == "":
        return None
    return parse_float_knob(raw, name, minimum=minimum)


class Knob:
    """One ambient setting: explicit arg > scoped override > env > default.

    ``parse`` validates and normalizes a programmatic value (explicit
    arguments and overrides go through it, so they share the
    environment path's range checks); ``from_env`` reads the setting's
    environment variable(s) and returns ``None`` when they are unset;
    ``default`` is what :meth:`resolve` then falls back to.

    The override is process-local state on the instance, so an ambient
    read costs one attribute check plus one environment read.  Worker
    processes never rely on either: the resolved value is shipped to
    them inside an :class:`~repro.exec.context.ExecContext`.
    """

    __slots__ = ("_parse", "_from_env", "_default", "_override")

    def __init__(
        self,
        parse: Callable[[Any], Any],
        from_env: Callable[[], Any],
        default: Any = None,
    ) -> None:
        self._parse = parse
        self._from_env = from_env
        self._default = default
        self._override: Any = None

    def resolve(self, value: Any = None) -> Any:
        """The effective value: ``value`` if given, else override, env, default.

        A malformed environment value raises a :class:`ConfigError`
        naming the variable.
        """
        if value is not None:
            return self._parse(value)
        if self._override is not None:
            return self._override
        value = self._from_env()
        return self._default if value is None else value

    def set(self, value: Any) -> None:
        """Install (or with ``None`` clear) the process-wide override."""
        self._override = None if value is None else self._parse(value)

    @contextmanager
    def override(self, value: Any) -> Iterator[None]:
        """Scope an override to a block; the previous one returns on exit."""
        previous = self._override
        self.set(value)
        try:
            yield
        finally:
            self._override = previous


def int_knob(
    env: str,
    label: str,
    *,
    minimum: int,
    special: Mapping[str, int | None],
    default: int,
) -> Knob:
    """A :class:`Knob` over an integer environment variable."""
    return Knob(
        partial(parse_int_knob, name=label, minimum=minimum),
        partial(read_env_int, env, minimum=minimum, special=special),
        default,
    )


def choice_knob(
    env: str,
    label: str,
    *,
    choices: tuple[str, ...],
    special: Mapping[str, str | None],
    default: str,
) -> Knob:
    """A :class:`Knob` over an enumerated environment variable."""
    return Knob(
        partial(parse_choice_knob, name=label, choices=choices),
        partial(read_env_choice, env, choices=choices, special=special),
        default,
    )
