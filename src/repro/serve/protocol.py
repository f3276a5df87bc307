"""The JSON-lines wire protocol shared by server and client.

One request per line, one response per line, UTF-8 JSON with a
trailing ``\\n``.  A request is either a *query*::

    {"id": 7, "kind": "petq", "items": [3, 9], "probs": [0.6, 0.4],
     "threshold": 0.25}

or a *control op* (``{"op": "ping"}``, ``{"op": "stats"}``,
``{"op": "reset_window"}``).  Responses echo the request ``id`` and
carry a ``status``: ``"ok"`` (with ``matches`` as ``[tid, score]``
pairs in presentation order, plus ``reads``/``mode``),
``"shed"`` (with ``reason``), ``"timeout"``, or ``"error"`` (with
``error``).

Probabilities survive the wire bit-exactly: UDAs quantize to float32 at
construction, and Python's JSON repr round-trips binary floats, so a
query encoded, sent, and decoded scores identically to the original —
which is what lets the stress tests assert byte-level answer identity
across the socket.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.exceptions import InvalidDistributionError, ReproError
from repro.core.queries import (
    EqualityQuery,
    EqualityThresholdQuery,
    EqualityTopKQuery,
    Query,
    SimilarityThresholdQuery,
    SimilarityTopKQuery,
    WindowedEqualityQuery,
)
from repro.core.uda import UncertainAttribute
from repro.sketch import MODES as SKETCH_MODES


class ProtocolError(ReproError):
    """A wire message is malformed or names an unknown query kind."""


#: Wire kind -> query class, and the extra scalar fields each carries.
QUERY_KINDS = {
    "peq": (EqualityQuery, ()),
    "petq": (EqualityThresholdQuery, ("threshold",)),
    "topk": (EqualityTopKQuery, ("k",)),
    "wpetq": (WindowedEqualityQuery, ("threshold", "window")),
    "simtq": (SimilarityThresholdQuery, ("threshold", "divergence")),
    "simtopk": (SimilarityTopKQuery, ("k", "divergence")),
}

_CLASS_TO_KIND = {cls: kind for kind, (cls, _) in QUERY_KINDS.items()}

#: Control operations a request may carry instead of a query.
CONTROL_OPS = ("ping", "stats", "reset_window")

#: Mutation operations a request may carry instead of a query::
#:
#:     {"id": 9, "mutate": "insert", "tid": 412,
#:      "items": [3, 9], "probs": [0.6, 0.4]}
#:     {"id": 10, "mutate": "delete", "tid": 412}
#:     {"id": 11, "mutate": "compact"}
#:
#: The ok-response carries ``op`` and the index's new ``mutations``
#: stamp instead of ``matches``/``reads``.
MUTATION_KINDS = ("insert", "delete", "compact")

#: Response statuses.
STATUSES = ("ok", "shed", "timeout", "error")


@dataclass(frozen=True)
class Mutation:
    """A decoded mutation operation."""

    op: str
    tid: int | None = None
    uda: UncertainAttribute | None = None


@dataclass(frozen=True)
class Request:
    """A decoded request: exactly one of ``query`` / ``mutation`` is set."""

    id: int | str
    query: Query | None
    #: Per-request deadline override in ms (``None`` = server default).
    deadline_ms: float | None = None
    mutation: Mutation | None = None
    #: Externally raised top-k pruning floor (the shard coordinator's
    #: global k-th score, pushed back each round — docs/sharding.md).
    #: ``0.0`` means "no elevation" and is the only value legal for
    #: non-top-k kinds.
    tau_floor: float = 0.0
    #: Sketch pre-filter mode override for similarity kinds
    #: (``simtq``/``simtopk`` only — docs/sketch-prefilter.md).
    #: ``None`` defers to the server's resolved ``REPRO_SKETCH`` mode.
    sketch: str | None = None
    #: Global k-th divergence ceiling for ``simtopk`` (the dual of
    #: ``tau_floor``, pushed back by the shard coordinator each round).
    div_ceiling: float | None = None


def query_to_wire(query: Query) -> dict[str, Any]:
    """Encode a query descriptor as wire fields (without ``id``)."""
    kind = _CLASS_TO_KIND.get(type(query))
    if kind is None:
        raise ProtocolError(
            f"unsupported query type {type(query).__name__}"
        )
    _, extras = QUERY_KINDS[kind]
    wire: dict[str, Any] = {
        "kind": kind,
        "items": [int(item) for item in query.q.items],
        "probs": [float(prob) for prob in query.q.probs],
    }
    for name in extras:
        wire[name] = getattr(query, name)
    return wire


def query_from_wire(message: dict[str, Any]) -> Query:
    """Decode wire fields into a query descriptor.

    Raises :class:`ProtocolError` for unknown kinds or missing fields;
    descriptor-level validation errors (bad threshold, empty
    distribution, ...) propagate as the descriptors' own
    :class:`~repro.core.exceptions.QueryError`.
    """
    kind = message.get("kind")
    if kind not in QUERY_KINDS:
        raise ProtocolError(
            f"unknown query kind {kind!r}; expected one of "
            f"{sorted(QUERY_KINDS)}"
        )
    cls, extras = QUERY_KINDS[kind]
    for name in ("items", "probs", *extras):
        if name not in message:
            raise ProtocolError(f"{kind}: missing field {name!r}")
    try:
        uda = UncertainAttribute(message["items"], message["probs"])
    except (TypeError, ValueError, InvalidDistributionError) as exc:
        raise ProtocolError(f"{kind}: bad distribution: {exc}") from exc
    return cls(uda, *[message[name] for name in extras])


def mutation_from_wire(message: dict[str, Any]) -> Mutation:
    """Decode a ``mutate`` request's fields into a :class:`Mutation`."""
    op = message.get("mutate")
    if op not in MUTATION_KINDS:
        raise ProtocolError(
            f"unknown mutation {op!r}; expected one of {MUTATION_KINDS}"
        )
    if op == "compact":
        return Mutation(op=op)
    tid = message.get("tid")
    if not isinstance(tid, int) or isinstance(tid, bool) or tid < 0:
        raise ProtocolError(
            f"{op}: 'tid' must be a non-negative int, got {tid!r}"
        )
    if op == "delete":
        return Mutation(op=op, tid=tid)
    for name in ("items", "probs"):
        if name not in message:
            raise ProtocolError(f"insert: missing field {name!r}")
    try:
        uda = UncertainAttribute(message["items"], message["probs"])
    except (TypeError, ValueError, InvalidDistributionError) as exc:
        raise ProtocolError(f"insert: bad distribution: {exc}") from exc
    return Mutation(op=op, tid=tid, uda=uda)


def mutation_to_wire(mutation: Mutation) -> dict[str, Any]:
    """Encode a mutation as wire fields (without ``id``)."""
    wire: dict[str, Any] = {"mutate": mutation.op}
    if mutation.tid is not None:
        wire["tid"] = int(mutation.tid)
    if mutation.uda is not None:
        wire["items"] = [int(item) for item in mutation.uda.items]
        wire["probs"] = [float(prob) for prob in mutation.uda.probs]
    return wire


def parse_request(message: dict[str, Any]) -> Request:
    """Decode a query- or mutation-request object (already JSON-parsed)."""
    if "id" not in message:
        raise ProtocolError("request is missing 'id'")
    request_id = message["id"]
    if not isinstance(request_id, (int, str)) or isinstance(request_id, bool):
        raise ProtocolError(f"request 'id' must be int or str, got {request_id!r}")
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or deadline_ms < 0
    ):
        raise ProtocolError(
            f"'deadline_ms' must be a non-negative number, got {deadline_ms!r}"
        )
    deadline = None if deadline_ms is None else float(deadline_ms)
    tau_floor = message.get("tau_floor", 0.0)
    if (
        isinstance(tau_floor, bool)
        or not isinstance(tau_floor, (int, float))
        or tau_floor < 0
    ):
        raise ProtocolError(
            f"'tau_floor' must be a non-negative number, got {tau_floor!r}"
        )
    sketch = message.get("sketch")
    if sketch is not None and sketch not in SKETCH_MODES:
        raise ProtocolError(
            f"'sketch' must be one of {SKETCH_MODES}, got {sketch!r}"
        )
    div_ceiling = message.get("div_ceiling")
    if div_ceiling is not None and (
        isinstance(div_ceiling, bool)
        or not isinstance(div_ceiling, (int, float))
        or div_ceiling < 0
    ):
        raise ProtocolError(
            f"'div_ceiling' must be a non-negative number, got "
            f"{div_ceiling!r}"
        )
    if "mutate" in message:
        if tau_floor:
            raise ProtocolError("'tau_floor' is not valid on a mutation")
        if sketch is not None:
            raise ProtocolError("'sketch' is not valid on a mutation")
        if div_ceiling is not None:
            raise ProtocolError("'div_ceiling' is not valid on a mutation")
        return Request(
            id=request_id,
            query=None,
            deadline_ms=deadline,
            mutation=mutation_from_wire(message),
        )
    query = query_from_wire(message)
    if tau_floor and not isinstance(query, EqualityTopKQuery):
        raise ProtocolError(
            f"'tau_floor' only applies to topk requests, got "
            f"{message.get('kind')!r}"
        )
    if sketch is not None and not isinstance(
        query, (SimilarityThresholdQuery, SimilarityTopKQuery)
    ):
        raise ProtocolError(
            f"'sketch' only applies to similarity requests, got "
            f"{message.get('kind')!r}"
        )
    if div_ceiling is not None and not isinstance(
        query, SimilarityTopKQuery
    ):
        raise ProtocolError(
            f"'div_ceiling' only applies to simtopk requests, got "
            f"{message.get('kind')!r}"
        )
    return Request(
        id=request_id,
        query=query,
        deadline_ms=deadline,
        tau_floor=float(tau_floor),
        sketch=sketch,
        div_ceiling=None if div_ceiling is None else float(div_ceiling),
    )


def encode_line(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message as a JSON line."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line into a message object."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"message is not an object: {message!r}")
    return message


def matches_to_wire(result) -> list[list[float]]:
    """Presentation-order ``[tid, score]`` pairs for a query result."""
    return [[match.tid, match.score] for match in result.matches]
