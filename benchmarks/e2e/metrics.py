"""Every metric the benchmark prints: name, unit, direction and bound.

``BENCHMARK.json`` at the repository root carries the same tables; the
smoke run fails if the two disagree, so a name cannot drift.

A bound is the share of the parent's median by which an end-to-end
metric may worsen before a change counts as a regression.  The driver
accepts a bound only if the quartile spread of ten runs on ten seeds
stays within it, and asks for three times that; on this box the
timings spread by 5-17 % (README, "Steadiness"; results/seeds.json), the
seed-dependent counts by up to 20 %, so all but ``rss_mb`` get the
widest bound the contract allows.
"""

from __future__ import annotations

#: ``(name, unit, better, bound)``, reported by every workload.  Timings
#: are best-of-passes at nominal machine speed (see ``steady.py``).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("closed_rps", "1/s", "higher", 0.25),
    ("closed_p50_ms", "ms", "lower", 0.25),
    ("closed_p90_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("recovery_s", "s", "lower", 0.25),
    ("reads_per_op", "pages", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.05),
    ("store_amp", "ratio", "lower", 0.25),
)

#: ``(name, unit, better)``; times are mean self ms per request of the
#: traced run unless the name says otherwise.
PER_LAYER = (
    # serve
    ("serve.decode_ms", "ms", "lower"),
    ("serve.encode_ms", "ms", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.resp_bytes_mean", "bytes", "lower"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("serve.timeout_ratio", "ratio", "lower"),
    ("serve.open_p50_ms", "ms", "lower"),
    ("serve.open_p99_ms", "ms", "lower"),
    ("serve.open_late_p99_ms", "ms", "lower"),
    ("serve.max_rate_ok_rps", "1/s", "higher"),
    ("serve.stall_max_ms", "ms", "lower"),
    # what the generator saw, pooled, not scaled to nominal speed
    ("serve.closed_p50_raw_ms", "ms", "lower"),
    ("serve.closed_p99_raw_ms", "ms", "lower"),
    ("serve.write_p90_raw_ms", "ms", "lower"),
    # exec
    ("exec.execute_ms", "ms", "lower"),
    ("exec.apply_mutation_ms", "ms", "lower"),
    ("exec.tuple_cache_hit_ratio", "ratio", "higher"),
    ("exec.tuple_cache_clears", "count", "lower"),
    # invindex
    ("invindex.execute_ms", "ms", "lower"),
    ("invindex.candidates_per_result", "ratio", "lower"),
    ("invindex.cursor_advances_per_op", "count", "lower"),
    ("invindex.lemma1_stop_ratio", "ratio", "higher"),
    ("invindex.posting_reads_per_op", "pages", "lower"),
    ("invindex.insert_ms", "ms", "lower"),
    ("invindex.delete_ms", "ms", "lower"),
    ("invindex.compact_ms", "ms", "lower"),
    ("invindex.segment_flushes", "count", "lower"),
    # core
    ("core.kernels_ms", "ms", "lower"),
    ("core.divergence_ms", "ms", "lower"),
    # pdrtree
    ("pdrtree.execute_ms", "ms", "lower"),
    ("pdrtree.visits_per_op", "count", "lower"),
    ("pdrtree.prune_ratio", "ratio", "higher"),
    # sketch
    ("sketch.bounds_ms", "ms", "lower"),
    ("sketch.prune_ratio", "ratio", "higher"),
    ("sketch.verifies_per_op", "count", "lower"),
    ("sketch.reads_per_op", "pages", "lower"),
    # btree
    ("btree.scan_ms", "ms", "lower"),
    ("btree.insert_ms", "ms", "lower"),
    # storage
    ("storage.fetch_ms", "ms", "lower"),
    ("storage.read_page_ms", "ms", "lower"),
    ("storage.heap_ms", "ms", "lower"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.evictions_per_op", "count", "lower"),
    ("storage.decoded_hit_ratio", "ratio", "higher"),
    ("storage.reads_per_op", "pages", "lower"),
    ("storage.writes_per_op", "pages", "lower"),
    ("storage.write_bytes_per_user_byte", "ratio", "lower"),
    ("storage.retries", "count", "lower"),
    ("storage.checksum_failures", "count", "lower"),
    # wal
    ("wal.append_ms", "ms", "lower"),
    ("wal.fsyncs_per_mutation", "ratio", "lower"),
    ("wal.bytes_per_mutation", "bytes", "lower"),
    ("wal.replay_ms", "ms", "lower"),
    ("wal.records_replayed", "count", "higher"),
    # set-up
    ("setup.datagen_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("setup.sketch_s", "s", "lower"),
    ("setup.save_s", "s", "lower"),
    ("setup.start_s", "s", "lower"),
    ("setup.warm_s", "s", "lower"),
    # harness (validity, not performance)
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.layer_sum_ratio", "ratio", "lower"),
    ("harness.samples", "count", "higher"),
    ("harness.slowdown", "ratio", "lower"),
)

END_TO_END_NAMES = tuple(row[0] for row in END_TO_END)
PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
UNITS = {row[0]: row[1] for row in (*END_TO_END, *PER_LAYER)}
BOUNDS = {row[0]: row[3] for row in END_TO_END}


def benchmark_json(workloads: dict, run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` these tables stand for."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": spec.name, "why": spec.why} for spec in workloads.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
