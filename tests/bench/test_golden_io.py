"""Golden I/O regression: rerun pinned figures against committed results.

The repo commits the quick-scale ``benchmarks/results/BENCH_*.json``
files; the paper's cost model fully determines their per-point read
counts, so a rerun at the same scale must reproduce them bit-for-bit.
This test reruns the two cheapest experiments (one per index family)
and diffs them against the committed goldens through the same
``compare_io`` machinery CI uses — an accidental change to the I/O
model fails here before it reaches a benchmark run.
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.bench import ExperimentScale, result_to_dict, run_experiments
from repro.storage import FaultPlan, fault_plan

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "benchmarks" / "results"

#: Cheap experiments covering both index families (PDR-tree, inverted
#: index) — the pair the CI determinism job smoke-runs — plus the join
#: ablation, which routes through the block rank-join engine and must
#: keep reproducing its pre-engine golden at the default block size
#: (a block of one reads exactly like the per-probe join), and the
#: strategy ablation, the one golden that runs all five search
#: strategies (NRA's list masks included).
PINNED = ("fig10", "abl_buffer", "abl_join", "abl_strategies")


def _load_compare_io():
    path = REPO_ROOT / "benchmarks" / "compare_io.py"
    spec = importlib.util.spec_from_file_location("bench_compare_io", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _golden_scale_is_quick() -> bool:
    summary_path = GOLDEN_DIR / "BENCH_summary.json"
    if not summary_path.exists():
        return False
    recorded = json.loads(summary_path.read_text()).get("scale", {})
    quick = ExperimentScale.quick()
    return recorded == {
        "crm_tuples": quick.crm_tuples,
        "synth_tuples": quick.synth_tuples,
        "queries_per_point": quick.queries_per_point,
    }


@pytest.mark.parametrize("name", PINNED)
def test_rerun_reproduces_committed_golden(tmp_path, name):
    golden_file = GOLDEN_DIR / f"BENCH_{name}.json"
    if not golden_file.exists():
        pytest.skip(f"no committed golden for {name}")
    if not _golden_scale_is_quick():
        pytest.skip("committed goldens were not produced at quick scale")

    with fault_plan(FaultPlan()):
        [(_, result, _)] = list(
            run_experiments([name], ExperimentScale.quick(), jobs=1)
        )

    fresh_dir = tmp_path / "fresh"
    pinned_dir = tmp_path / "golden"
    fresh_dir.mkdir()
    pinned_dir.mkdir()
    (fresh_dir / golden_file.name).write_text(
        json.dumps(result_to_dict(result), indent=2) + "\n"
    )
    # Only the rerun experiment goes into the comparison directory:
    # compare_io treats a file-set asymmetry as a divergence.
    shutil.copy(golden_file, pinned_dir / golden_file.name)

    compare_io = _load_compare_io()
    problems = compare_io.compare_dirs(pinned_dir, fresh_dir)
    assert problems == [], "\n".join(problems)


def test_compare_refuses_cross_mode_diff(tmp_path):
    """Serving-mode reads depend on arrival history; compare_io must
    refuse to diff them against measurement-protocol results."""
    compare_io = _load_compare_io()
    assert "mode" in compare_io.PROTOCOL_KEYS
    payload = {"series": {"s": [{f: 0 for f in
                                 compare_io.DETERMINISTIC_FIELDS}]}}
    dirs = {}
    for mode in ("measure", "serve"):
        d = tmp_path / mode
        d.mkdir()
        (d / "BENCH_summary.json").write_text(
            json.dumps({"kernel": "vectorized", "batch": 1, "mode": mode})
        )
        (d / "BENCH_point.json").write_text(json.dumps(payload))
        dirs[mode] = d
    problems = compare_io.compare_dirs(dirs["measure"], dirs["serve"])
    assert len(problems) == 1 and "mode" in problems[0]
    # Same mode on both sides compares normally (and here, cleanly).
    assert compare_io.compare_dirs(dirs["measure"], dirs["measure"]) == []


def test_compare_refuses_cross_backend_diff(tmp_path):
    """Goldens bind to the simulated backend; a diff against an mmap
    run must be refused, not quietly blessed, even though the I/O
    counts happen to agree."""
    compare_io = _load_compare_io()
    assert "backend" in compare_io.PROTOCOL_KEYS
    payload = {"series": {"s": [{f: 0 for f in
                                 compare_io.DETERMINISTIC_FIELDS}]}}
    dirs = {}
    for backend in ("simulated", "mmap"):
        d = tmp_path / backend
        d.mkdir()
        (d / "BENCH_summary.json").write_text(
            json.dumps({"mode": "measure", "backend": backend})
        )
        (d / "BENCH_point.json").write_text(json.dumps(payload))
        dirs[backend] = d
    problems = compare_io.compare_dirs(dirs["simulated"], dirs["mmap"])
    assert len(problems) == 1 and "backend" in problems[0]
    assert compare_io.compare_dirs(dirs["mmap"], dirs["mmap"]) == []
    # A legacy dir with no backend key stays comparable to anything.
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    (legacy / "BENCH_summary.json").write_text(json.dumps({"mode": "measure"}))
    (legacy / "BENCH_point.json").write_text(json.dumps(payload))
    assert compare_io.compare_dirs(legacy, dirs["mmap"]) == []


def test_compare_refuses_cross_shard_count_diff(tmp_path):
    """Per-shard pools and B-tree roots change the page economics; a
    diff between result dirs with different shard counts must be
    refused, while shards=1 dirs stay comparable with single-node runs
    (and with legacy dirs that predate the key)."""
    compare_io = _load_compare_io()
    assert "shards" in compare_io.PROTOCOL_KEYS
    assert "transport" in compare_io.PROTOCOL_KEYS
    payload = {"series": {"s": [{f: 0 for f in
                                 compare_io.DETERMINISTIC_FIELDS}]}}
    dirs = {}
    for shards in (1, 4):
        d = tmp_path / f"shards{shards}"
        d.mkdir()
        (d / "BENCH_summary.json").write_text(
            json.dumps(
                {"mode": "measure", "shards": shards, "transport": "local"}
            )
        )
        (d / "BENCH_point.json").write_text(json.dumps(payload))
        dirs[shards] = d
    problems = compare_io.compare_dirs(dirs[1], dirs[4])
    assert len(problems) == 1 and "shards" in problems[0]
    assert compare_io.compare_dirs(dirs[4], dirs[4]) == []
    # A single-node dir that predates the shard keys is comparable
    # with a shards=1 dir — the degenerate protocol is the same run.
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    (legacy / "BENCH_summary.json").write_text(json.dumps({"mode": "measure"}))
    (legacy / "BENCH_point.json").write_text(json.dumps(payload))
    assert compare_io.compare_dirs(legacy, dirs[1]) == []
    # Transports are protocol too: serve-transport reads include no
    # tag breakdown, so a cross-transport diff is refused as well.
    serve_dir = tmp_path / "serve_transport"
    serve_dir.mkdir()
    (serve_dir / "BENCH_summary.json").write_text(
        json.dumps(
            {"mode": "measure", "shards": 4, "transport": "serve"}
        )
    )
    (serve_dir / "BENCH_point.json").write_text(json.dumps(payload))
    problems = compare_io.compare_dirs(dirs[4], serve_dir)
    assert len(problems) == 1 and "transport" in problems[0]


def test_compare_refuses_cross_sketch_diff(tmp_path):
    """Sketch pre-filtering changes which pages a similarity run reads
    (exact mode legally reads *fewer*); a diff across sketch modes must
    be refused, while legacy dirs that predate the key stay
    comparable."""
    compare_io = _load_compare_io()
    assert "sketch" in compare_io.PROTOCOL_KEYS
    payload = {"series": {"s": [{f: 0 for f in
                                 compare_io.DETERMINISTIC_FIELDS}]}}
    dirs = {}
    for sketch in ("off", "exact"):
        d = tmp_path / sketch
        d.mkdir()
        (d / "BENCH_summary.json").write_text(
            json.dumps({"mode": "measure", "sketch": sketch})
        )
        (d / "BENCH_point.json").write_text(json.dumps(payload))
        dirs[sketch] = d
    problems = compare_io.compare_dirs(dirs["off"], dirs["exact"])
    assert len(problems) == 1 and "sketch" in problems[0]
    assert compare_io.compare_dirs(dirs["exact"], dirs["exact"]) == []
    # Dirs from before the sketch era carry no key and compare fine.
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    (legacy / "BENCH_summary.json").write_text(json.dumps({"mode": "measure"}))
    (legacy / "BENCH_point.json").write_text(json.dumps(payload))
    assert compare_io.compare_dirs(legacy, dirs["off"]) == []


@pytest.mark.parametrize("name", ["fig10"])
def test_golden_reproduces_under_mmap_backend(tmp_path, name):
    """The differential property at golden granularity: the same pinned
    experiment rerun on the mmap backend produces bit-identical I/O."""
    from repro.storage import backend_scope

    golden_file = GOLDEN_DIR / f"BENCH_{name}.json"
    if not golden_file.exists():
        pytest.skip(f"no committed golden for {name}")
    if not _golden_scale_is_quick():
        pytest.skip("committed goldens were not produced at quick scale")

    with fault_plan(FaultPlan()), backend_scope("mmap"):
        [(_, result, _)] = list(
            run_experiments([name], ExperimentScale.quick(), jobs=1)
        )

    fresh_dir = tmp_path / "fresh"
    pinned_dir = tmp_path / "golden"
    fresh_dir.mkdir()
    pinned_dir.mkdir()
    (fresh_dir / golden_file.name).write_text(
        json.dumps(result_to_dict(result), indent=2) + "\n"
    )
    shutil.copy(golden_file, pinned_dir / golden_file.name)
    # No BENCH_summary.json is written on either side, so the protocol
    # guard stays out of the way and the raw I/O numbers are compared.
    compare_io = _load_compare_io()
    problems = compare_io.compare_dirs(pinned_dir, fresh_dir)
    assert problems == [], "\n".join(problems)
