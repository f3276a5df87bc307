"""The online query service: asyncio TCP server over serving-mode execution.

:mod:`repro.serve` keeps an index attached to one long-lived warm
buffer pool (:class:`repro.exec.serving.ServingExecutor`) and exposes it
over a JSON-lines TCP protocol:

- :mod:`repro.serve.protocol` — the wire format (requests, responses,
  query descriptor encoding) shared by server and client;
- :mod:`repro.serve.config` — :class:`ServeConfig` and its
  ``REPRO_SERVE_*`` environment knobs;
- :mod:`repro.serve.server` — :class:`QueryServer`: admission control
  (in-flight cap + bounded queue), per-request deadlines, and one
  request at a time on a single worker thread;
- :mod:`repro.serve.client` — :class:`ServeClient`, a thin asyncio
  client used by the stress tests and the serving benchmark.

See ``docs/serving.md`` for the full model.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    MUTATION_KINDS,
    Mutation,
    ProtocolError,
    Request,
    decode_line,
    encode_line,
    mutation_from_wire,
    mutation_to_wire,
    query_from_wire,
    query_to_wire,
)
from repro.serve.server import QueryServer

__all__ = [
    "MUTATION_KINDS",
    "Mutation",
    "ProtocolError",
    "QueryServer",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "decode_line",
    "encode_line",
    "mutation_from_wire",
    "mutation_to_wire",
    "query_from_wire",
    "query_to_wire",
]
