"""Tests for tracing primitives, the record schema, and the reporter."""

import json

import pytest

from repro.obs import trace as trace_mod
from repro.obs.report import iter_jsonl, main as report_main, summarize
from repro.obs.schema import (
    SCHEMA,
    TraceSchemaError,
    validate_jsonl,
    validate_record,
    validate_records,
)
from repro.obs.trace import (
    MemorySink,
    Tracer,
    encode_record,
    resolve_trace_path,
    tracing,
    tracing_to_path,
)


class TestEncodeRecord:
    def test_keys_sorted_and_compact(self):
        line = encode_record({"kind": "pool.hit", "seq": 1, "page_id": 3})
        assert line == '{"kind":"pool.hit","page_id":3,"seq":1}'

    def test_equal_records_encode_to_equal_bytes(self):
        a = encode_record({"seq": 1, "kind": "disk.write", "page_id": 2})
        b = encode_record({"page_id": 2, "kind": "disk.write", "seq": 1})
        assert a == b

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            encode_record({"seq": 1, "kind": "strategy.stop", "bound": float("nan")})


class TestTracerAndSinks:
    def test_seq_starts_at_one_and_is_monotonic(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("pool.hit", page_id=1)
        tracer.event("pool.miss", page_id=2)
        assert [r["seq"] for r in sink.records] == [1, 2]

    def test_memory_sink_helpers(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("pool.hit", page_id=1)
        tracer.event("pool.hit", page_id=2)
        tracer.event("disk.read", page_id=2, tag="postings")
        assert len(sink) == 3
        assert sink.count("pool.hit") == 2
        assert sink.kinds() == {"pool.hit": 2, "disk.read": 1}
        assert [r["page_id"] for r in sink.of_kind("pool.hit")] == [1, 2]
        assert sink.jsonl_lines() == [encode_record(r) for r in sink.records]

    def test_tracing_installs_and_restores(self):
        assert trace_mod.ACTIVE is None
        tracer = Tracer(MemorySink())
        with tracing(tracer) as installed:
            assert installed is tracer
            assert trace_mod.ACTIVE is tracer
            inner = Tracer(MemorySink())
            with tracing(inner):
                assert trace_mod.ACTIVE is inner
            assert trace_mod.ACTIVE is tracer
        assert trace_mod.ACTIVE is None

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing(Tracer(MemorySink())):
                raise RuntimeError("boom")
        assert trace_mod.ACTIVE is None

    def test_tracing_to_path_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing_to_path(path) as tracer:
            tracer.event("pool.miss", page_id=7)
            tracer.event("disk.read", page_id=7, tag="tuples")
        assert validate_jsonl(path) == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "seq": 1,
            "kind": "pool.miss",
            "page_id": 7,
        }


class TestResolveTracePath:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv(trace_mod.TRACE_ENV, "/tmp/env.jsonl")
        assert resolve_trace_path("arg.jsonl") == "arg.jsonl"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(trace_mod.TRACE_ENV, "  env.jsonl  ")
        assert resolve_trace_path(None) == "env.jsonl"

    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv(trace_mod.TRACE_ENV, raising=False)
        assert resolve_trace_path(None) is None

    def test_blank_env_means_off(self, monkeypatch):
        monkeypatch.setenv(trace_mod.TRACE_ENV, "   ")
        assert resolve_trace_path(None) is None


def _ok(kind, **fields):
    return {"seq": 1, "kind": kind, **fields}


class TestSchemaValidation:
    def test_every_kind_has_a_spec_with_typed_fields(self):
        for kind, spec in SCHEMA.items():
            assert "." in kind
            for expected in {**spec.required, **spec.optional}.values():
                assert isinstance(expected, type)

    def test_valid_record_passes(self):
        validate_record(_ok("disk.read", page_id=3, tag="postings"))

    def test_optional_field_accepted(self):
        validate_record(
            _ok("strategy.begin", strategy="row_pruning", mode="threshold", tau=0.1)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown record kind"):
            validate_record(_ok("disk.levitate", page_id=1))

    def test_missing_required_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="missing required"):
            validate_record(_ok("disk.read", page_id=3))

    def test_extra_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="unexpected field"):
            validate_record(_ok("pool.hit", page_id=3, color="red"))

    def test_bool_not_accepted_for_int(self):
        with pytest.raises(TraceSchemaError, match="expected int"):
            validate_record(_ok("pool.hit", page_id=True))

    def test_int_accepted_for_float(self):
        validate_record(
            _ok("strategy.stop", strategy="highest_prob_first",
                reason="lemma1", bound=0, tau=1)
        )

    def test_wrong_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="expected str"):
            validate_record(_ok("disk.read", page_id=3, tag=9))

    def test_pdr_verdict_enum_enforced(self):
        with pytest.raises(TraceSchemaError, match="verdict"):
            validate_record(
                _ok("pdr.verdict", child=1, bound=0.5, tau=0.1, verdict="maybe")
            )

    def test_pdr_verdict_tau_is_optional(self):
        # A similarity top-k walk holding fewer than k answers has a cut
        # of -inf, which JSON cannot encode: the record omits tau.
        validate_record(
            _ok("pdr.verdict", child=1, bound=-0.25, verdict="descend")
        )
        with pytest.raises(TraceSchemaError, match="expected float"):
            validate_record(
                _ok("pdr.verdict", child=1, bound=-0.25, tau="-inf",
                    verdict="descend")
            )

    @pytest.mark.parametrize("seq", [0, -1, True, None, "1"])
    def test_bad_seq_rejected(self, seq):
        with pytest.raises(TraceSchemaError, match="seq"):
            validate_record({"seq": seq, "kind": "pool.hit", "page_id": 1})

    def test_non_object_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_record([1, 2, 3])

    def test_validate_records_counts(self):
        records = [
            _ok("pool.hit", page_id=1),
            _ok("pool.miss", page_id=2),
        ]
        assert validate_records(records) == 2

    def test_validate_jsonl_names_the_offending_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            encode_record(_ok("pool.hit", page_id=1))
            + "\n"
            + encode_record(_ok("pool.hit", page_id=1, extra=9))
            + "\n"
        )
        with pytest.raises(TraceSchemaError, match=":2:"):
            validate_jsonl(path)

    def test_validate_jsonl_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            validate_jsonl(path)


class TestReport:
    def _trace_records(self):
        return [
            {"seq": 1, "kind": "query.begin", "structure": "inv-index",
             "query": "EqualityThresholdQuery", "strategy": "row_pruning"},
            {"seq": 2, "kind": "pool.miss", "page_id": 1},
            {"seq": 3, "kind": "disk.read", "page_id": 1, "tag": "postings"},
            {"seq": 4, "kind": "pool.hit", "page_id": 1},
            {"seq": 5, "kind": "strategy.stop", "strategy": "row_pruning",
             "reason": "row_cutoff", "bound": 0.05, "tau": 0.1},
            {"seq": 6, "kind": "query.end", "structure": "inv-index",
             "strategy": "row_pruning", "matches": 2},
        ]

    def test_summarize(self):
        summary = summarize(self._trace_records())
        assert summary["records"] == 6
        assert summary["reads_by_tag"] == {"postings": 1}
        assert summary["stop_reasons"] == {"row_pruning:row_cutoff": 1}
        assert summary["queries"] == {"inv-index/row_pruning": 1}
        assert summary["pool_hit_rate"] == pytest.approx(0.5)

    def test_summarize_rejects_invalid_records(self):
        records = self._trace_records()
        records[2]["surprise"] = 1
        with pytest.raises(TraceSchemaError):
            summarize(records)

    def test_iter_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            encode_record(_ok("pool.hit", page_id=1)) + "\n\n"
        )
        assert len(list(iter_jsonl(path))) == 1

    def test_main_validate_only_ok(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(
                encode_record(r) for r in self._trace_records()
            ) + "\n"
        )
        assert report_main([str(path), "--validate-only"]) == 0
        assert "schema OK" in capsys.readouterr().out

    def test_main_renders_tables(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(
                encode_record(r) for r in self._trace_records()
            ) + "\n"
        )
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "records: 6" in out
        assert "row_pruning:row_cutoff" in out

    def test_main_json_mode(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(encode_record(_ok("pool.hit", page_id=1)) + "\n")
        assert report_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 1

    def test_main_nonzero_on_malformed_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq":1,"kind":"disk.levitate"}\n')
        assert report_main([str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_main_nonzero_on_missing_file(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "absent.jsonl")]) == 1
        assert "error" in capsys.readouterr().err
