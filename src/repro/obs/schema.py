"""The published trace-record schema, and a strict validator for it.

Every record a :class:`repro.obs.trace.Tracer` may emit is declared here
as a :class:`RecordSpec`: the set of required fields, the optional
fields, and the expected type of each.  CI's trace-smoke job validates
a real benchmark trace line-by-line against this module, so the schema
is a contract — adding an event kind or a field means adding it here
(and to ``docs/observability.md``), or the smoke job fails.

Validation is deliberately strict: unknown kinds, missing required
fields, *extra* fields, and type mismatches are all errors.  ``bool`` is
not accepted where ``int`` is declared (Python's bool subclasses int;
a trace that says ``"count": true`` is a bug, not a count), while
``float`` fields accept ints (JSON round-trips ``2.0`` as ``2``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable


class TraceSchemaError(ValueError):
    """A trace record or file does not conform to the published schema."""


@dataclass(frozen=True)
class RecordSpec:
    """Field contract for one event kind."""

    required: dict[str, type]
    optional: dict[str, type] = field(default_factory=dict)


def _spec(required: dict[str, type], optional: dict[str, type] | None = None) -> RecordSpec:
    return RecordSpec(required=required, optional=optional or {})


#: Every event kind the instrumentation may emit.  Field vocabulary:
#: ``page_id``/``tag`` are physical-page coordinates; ``strategy`` is an
#: equality-strategy name; ``bound``/``tau`` are the score bound and
#: threshold at a decision point (a probability, or ``-divergence``);
#: ``decode_kind``/``join_kind`` avoid colliding with the record-level
#: ``kind`` discriminator.
SCHEMA: dict[str, RecordSpec] = {
    # -- storage layer ------------------------------------------------------
    "disk.read": _spec({"page_id": int, "tag": str}),
    "disk.write": _spec({"page_id": int}),
    "disk.checksum_failure": _spec({"page_id": int}),
    "pool.hit": _spec({"page_id": int}),
    "pool.miss": _spec({"page_id": int}),
    "pool.evict": _spec({"page_id": int, "dirty": bool}),
    "pool.retry": _spec({"page_id": int, "attempt": int}),
    "decoded.hit": _spec({"decode_kind": str, "page_id": int}),
    "decoded.miss": _spec({"decode_kind": str, "page_id": int}),
    # -- query dispatch -----------------------------------------------------
    "query.begin": _spec(
        {"structure": str, "query": str}, {"strategy": str}
    ),
    "query.end": _spec(
        {"structure": str, "matches": int}, {"strategy": str}
    ),
    # -- inverted-index strategies ------------------------------------------
    "strategy.begin": _spec(
        {"strategy": str, "mode": str},
        {"tau": float, "k": int, "tau_floor": float},
    ),
    "strategy.stop": _spec(
        {"strategy": str, "reason": str},
        {"bound": float, "tau": float, "unresolved": int},
    ),
    "cursor.advance": _spec({"item": int, "count": int, "head_prob": float}),
    "verify.random_access": _spec({"tid": int}),
    "nra.resolve": _spec({"discarded": int, "confirmed": int, "unresolved": int}),
    # -- PDR-tree -----------------------------------------------------------
    "pdr.visit": _spec({"page_id": int, "node": str}),
    # bound/tau are on the Match.score scale (similarity: -divergence);
    # tau is absent while a top-k cut is still -inf (JSON has no inf).
    "pdr.verdict": _spec(
        {"child": int, "bound": float, "verdict": str}, {"tau": float}
    ),
    # -- joins --------------------------------------------------------------
    "join.begin": _spec({"join_kind": str}, {"threshold": float, "k": int}),
    "join.probe": _spec({"left_tid": int}),
    "join.end": _spec({"join_kind": str, "pairs": int, "probes": int}),
    # -- block rank-join engine ---------------------------------------------
    # block is the 0-based block ordinal, size the outer tuples in it;
    # mode discriminates the shared-scan fast path from grouped probing.
    "join.block_begin": _spec(
        {"join_kind": str, "block": int, "size": int},
        {"strategy": str, "mode": str},
    ),
    # One per head page pinned for the block; probes is how many of the
    # block's outer tuples touch the page's posting list.
    "join.shared_page": _spec({"page_id": int, "probes": int}),
    "join.block_end": _spec(
        {"join_kind": str, "block": int, "pairs": int},
        {"shared_pages": int},
    ),
    # Adaptive top-k threshold propagation: the probe for left_tid ran
    # with its dynamic threshold elevated to the global k-th pair score.
    "join.tau_raised": _spec({"left_tid": int, "tau": float}),
    # -- batch executor -----------------------------------------------------
    "batch.begin": _spec({"size": int, "structure": str}, {"strategy": str}),
    "batch.query": _spec({"position": int, "query": str}),
    "batch.shared_page": _spec({"page_id": int, "queries": int}),
    "batch.end": _spec({"size": int, "shared_pages": int}),
    # -- query service (repro.serve) ----------------------------------------
    # One serve.request per response written: status is "ok", "shed",
    # "timeout", or "error"; reads/matches only accompany "ok".
    # Records carry no timestamps (trace byte-determinism), so queueing
    # delay is deliberately absent — wall-clock lives in the response
    # payload, not the trace.
    "serve.request": _spec(
        {"query": str, "status": str},
        {"reads": int, "reason": str, "matches": int},
    ),
    # Admission control turned a request away: reason "inflight" (the
    # in-flight cap), "queue" (the bounded wait queue overflowed) or
    # "shutdown" (it arrived after the server began to stop).
    "serve.shed": _spec({"reason": str}),
    # -- scatter-gather sharding (repro.shard, docs/sharding.md) ------------
    # One shard.begin/end per coordinated query; k/fanout only for
    # top-k.  Each round carries the global tau floor its probes were
    # elevated to; each completed probe reports its measured reads; a
    # shard.shed marks a probe shed by its shard's deadline/admission
    # and requeued into a later round.
    "shard.begin": _spec(
        {"shards": int, "query": str, "transport": str},
        {"k": int, "fanout": int},
    ),
    # div_ceiling is the similarity round protocol's global k-th
    # divergence (the dual of tau_floor); absent until k matches merge.
    "shard.round": _spec(
        {"round": int, "size": int, "tau_floor": float},
        {"div_ceiling": float},
    ),
    "shard.probe": _spec(
        {"shard": int, "reads": int, "matches": int}, {"tau_floor": float}
    ),
    "shard.shed": _spec({"shard": int, "round": int}),
    "shard.end": _spec(
        {"shards": int, "reads": int, "matches": int, "rounds": int}
    ),
    # -- sketch pre-filtering (repro.sketch, docs/sketch-prefilter.md) ------
    # One sketch.probe per sketch-assisted similarity query: the mode
    # ("exact"/"approx"), the query's divergence, and the live tuple
    # count the prefilter ranged over.  sketch.prune reports how many
    # tuples the prefilter excluded versus kept for verification; one
    # sketch.verify per exact verification of a surviving candidate.
    "sketch.probe": _spec({"mode": str, "divergence": str, "tuples": int}),
    "sketch.prune": _spec({"pruned": int, "candidates": int}),
    "sketch.verify": _spec({"tid": int}),
    # -- write-ahead log + LSM segments (repro.wal, docs/mutability.md) -----
    # One wal.append per durable record; op is "insert" or "delete".
    "wal.append": _spec({"lsn": int, "op": str}),
    # One wal.replay per attach_wal: applied records past the image's
    # wal_lsn, skipped records at or below it, and whether the log had a
    # torn tail truncated on open.
    "wal.replay": _spec({"applied": int, "skipped": int, "torn": bool}),
    # The active segment reached capacity and was sealed; segment is its
    # 0-based ordinal, tuples how many tids it holds.
    "segment.flush": _spec({"segment": int, "tuples": int}),
    # Compaction folds every segment (and drops deleted tuples) back
    # into freshly bulk-loaded base structures.
    "compaction.begin": _spec({"segments": int, "deleted": int}),
    "compaction.end": _spec({"items": int, "pages_freed": int}),
    # -- bench harness ------------------------------------------------------
    # backend names the storage backend under the disk ("simulated",
    # "mmap"); I/O counts are backend-independent, so it exists
    # to make cross-backend trace comparisons self-describing.
    "measure.begin": _spec(
        {"index": str, "query": str, "pool_size": int}, {"backend": str}
    ),
    "measure.end": _spec({"index": str, "reads": int, "matches": int}),
    "experiment.begin": _spec({"name": str}),
    "experiment.end": _spec({"name": str}),
}

#: Values a ``pdr.verdict`` record's ``verdict`` field may take.
PDR_VERDICTS = ("descend", "prune")


def _type_ok(value: Any, expected: type) -> bool:
    if expected is bool:
        return isinstance(value, bool)
    if expected is int:
        # bool subclasses int; an int field holding True is a bug.
        return isinstance(value, int) and not isinstance(value, bool)
    if expected is float:
        # JSON round-trips 2.0 as 2 — accept ints where floats are declared.
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, expected)


def validate_record(record: dict[str, Any]) -> None:
    """Raise :class:`TraceSchemaError` unless ``record`` conforms."""
    if not isinstance(record, dict):
        raise TraceSchemaError(f"record is not an object: {record!r}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise TraceSchemaError(f"bad or missing seq: {record!r}")
    kind = record.get("kind")
    spec = SCHEMA.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise TraceSchemaError(f"unknown record kind: {kind!r}")
    for name, expected in spec.required.items():
        if name not in record:
            raise TraceSchemaError(f"{kind}: missing required field {name!r}")
        if not _type_ok(record[name], expected):
            raise TraceSchemaError(
                f"{kind}: field {name!r} expected {expected.__name__}, "
                f"got {record[name]!r}"
            )
    for name, value in record.items():
        if name in ("seq", "kind") or name in spec.required:
            continue
        expected = spec.optional.get(name)
        if expected is None:
            raise TraceSchemaError(f"{kind}: unexpected field {name!r}")
        if not _type_ok(value, expected):
            raise TraceSchemaError(
                f"{kind}: field {name!r} expected {expected.__name__}, "
                f"got {value!r}"
            )
    if kind == "pdr.verdict" and record["verdict"] not in PDR_VERDICTS:
        raise TraceSchemaError(
            f"pdr.verdict: verdict must be one of {PDR_VERDICTS}, "
            f"got {record['verdict']!r}"
        )


def validate_records(records: Iterable[dict[str, Any]]) -> int:
    """Validate an iterable of records; return how many were checked."""
    checked = 0
    for record in records:
        validate_record(record)
        checked += 1
    return checked


def validate_jsonl(path) -> int:
    """Validate a JSONL trace file; return the number of records.

    Raises :class:`TraceSchemaError` naming the offending line on the
    first malformed or non-conforming record.
    """
    checked = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            try:
                validate_record(record)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: {exc}") from exc
            checked += 1
    return checked
