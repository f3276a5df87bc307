"""Pluggable storage backends behind the simulated disk.

Which byte store a :class:`~repro.storage.disk.DiskManager` delegates to
is config-dispatched, mirroring the ``ordered_storage`` /
``unordered_storage`` pattern of datasketch's production inverted-index
deployment (SNIPPETS.md §1): a registry of named backends, an
environment knob selecting among them, and a process-wide override
(one :class:`repro.core.config.Knob`, like every other ambient setting).

Backends
--------
``simulated``
    The in-memory dict the paper's figures are measured on (default).
``mmap``
    Pages in a real file via ``mmap`` — wall-clock numbers mean
    something; survives close/reopen through a meta sidecar.

Configuration
-------------
``REPRO_BACKEND``
    Backend name (default ``simulated``).  Unknown names raise a
    :class:`~repro.core.exceptions.ConfigError` naming the variable.
``REPRO_BACKEND_PATH``
    Directory for ``mmap`` page files (each disk gets a unique file
    inside it; default: a per-process temporary directory).  Setting it
    with any other backend is a configuration error — the knob would be
    silently dead, which PR 6's config discipline forbids.

Simulated I/O counts are backend-independent by construction — the disk
layer counts logical page transfers above the backend — but goldens
still bind to ``simulated`` only; see ``docs/storage-backends.md``.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import (
    ConfigError,
    Knob,
    parse_choice_knob,
    read_env_choice,
)
from repro.storage.backends.base import StorageBackend
from repro.storage.backends.mmapfile import MmapFileBackend
from repro.storage.backends.simulated import SimulatedBackend
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = [
    "BACKEND_ENV",
    "BACKEND_PATH_ENV",
    "BACKEND_NAMES",
    "BackendSpec",
    "MmapFileBackend",
    "SimulatedBackend",
    "StorageBackend",
    "active_backend_spec",
    "backend_scope",
    "create_backend",
    "set_active_backend",
    "spec_from_env",
]

#: Environment knobs (see module docstring).
BACKEND_ENV = "REPRO_BACKEND"
BACKEND_PATH_ENV = "REPRO_BACKEND_PATH"

#: Registered backend names, in registry order.
BACKEND_NAMES = ("simulated", "mmap")


@dataclass(frozen=True)
class BackendSpec:
    """A resolved backend choice, picklable for worker processes."""

    name: str = "simulated"
    #: Directory for mmap page files (``None``: per-process temp dir).
    directory: str | None = None

    def __post_init__(self) -> None:
        parse_choice_knob(self.name, "backend name", choices=BACKEND_NAMES)


def spec_from_env(environ=None) -> BackendSpec:
    """Resolve the ``REPRO_BACKEND`` / ``REPRO_BACKEND_PATH`` knobs.

    Malformed values raise :class:`ConfigError` naming the offending
    variable; both knobs unset resolves to the simulated default.
    """
    name = read_env_choice(
        BACKEND_ENV, choices=BACKEND_NAMES, special={"default": None}, environ=environ
    )
    source = os.environ if environ is None else environ
    raw_path = source.get(BACKEND_PATH_ENV, "").strip()
    if not raw_path:
        return BackendSpec(name or "simulated")
    if (name or "simulated") != "mmap":
        raise ConfigError(
            f"{BACKEND_PATH_ENV} is only meaningful with {BACKEND_ENV}=mmap "
            f"(got backend {name or 'simulated'!r})"
        )
    path = Path(raw_path)
    if path.exists() and not path.is_dir():
        raise ConfigError(
            f"{BACKEND_PATH_ENV} must name a directory, "
            f"got existing non-directory {raw_path!r}"
        )
    return BackendSpec("mmap", directory=raw_path)


def _as_spec(spec: BackendSpec | str) -> BackendSpec:
    return BackendSpec(spec) if isinstance(spec, str) else spec


#: The backend knob: ``DiskManager(backend=...)`` > :func:`backend_scope`
#: / :func:`set_active_backend` > ``REPRO_BACKEND`` (see
#: :class:`repro.core.config.Knob`).  New disks pick up
#: :func:`active_backend_spec`; worker processes receive the resolved
#: spec by value inside an :class:`~repro.exec.context.ExecContext`
#: rather than re-reading the environment.
BACKEND = Knob(_as_spec, spec_from_env)
active_backend_spec = BACKEND.resolve
set_active_backend = BACKEND.set
backend_scope = BACKEND.override


#: Lazily created scratch directory for mmap page files when no
#: directory is configured; lives for the process (temp cleanup is the
#: OS's job, exactly like any other TMPDIR user).
_SCRATCH_DIR: str | None = None

#: Monotonic counter making each mmap page file name unique per process.
_FILE_COUNTER = itertools.count()


def _mmap_directory(spec: BackendSpec) -> Path:
    global _SCRATCH_DIR
    if spec.directory is not None:
        directory = Path(spec.directory)
        directory.mkdir(parents=True, exist_ok=True)
        return directory
    if _SCRATCH_DIR is None:
        _SCRATCH_DIR = tempfile.mkdtemp(prefix="repro-mmap-")
    return Path(_SCRATCH_DIR)


def create_backend(
    spec: StorageBackend | BackendSpec | str | None = None,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> StorageBackend:
    """Instantiate (or pass through) the backend a new disk should use.

    ``None`` consults :func:`active_backend_spec`; a string is a registry
    name (unknown names raise :class:`ConfigError`); an existing
    :class:`StorageBackend` is returned as-is after a page-size check,
    so callers can hand a disk a reopened :class:`MmapFileBackend`
    directly.
    """
    if isinstance(spec, StorageBackend):
        if spec.page_size != page_size:
            raise ConfigError(
                f"backend page size {spec.page_size} != disk page size "
                f"{page_size}"
            )
        return spec
    spec = active_backend_spec(spec)
    if spec.name == "simulated":
        return SimulatedBackend(page_size)
    directory = _mmap_directory(spec)
    filename = f"disk-{os.getpid()}-{next(_FILE_COUNTER)}.pages"
    return MmapFileBackend(directory / filename, page_size)
