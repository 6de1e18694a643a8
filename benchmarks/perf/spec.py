"""What the benchmark measures: workload and metric declarations.

``BENCHMARK.json`` must list exactly these names (``test_harness.py``
checks it), so a metric is added or renamed here and there together.
"""

from __future__ import annotations

#: Seconds one run measures, and rounds of a full set (fixed: a set of
#: another size is not comparable).
RUN_SECONDS = 20
ROUNDS = 2

#: (name, why) — later issues refer to the workloads by these names.
WORKLOADS = (
    ("tpch_joins_cold",
     "step I dominates: joins, scans and hash indexes on fresh TPC-H data, nothing cached"),
    ("agg_compile_cold",
     "step II dominates: d-tree compilation and convolution of aggregates, nothing cached"),
    ("sampled_joins",
     "only Monte-Carlo, codegen kernels and world sampling run; the d-tree compiler is idle"),
    ("served_reads",
     "server hit path (hot zoo fits the caches) and miss+evict path (ad-hoc texts overflow them)"),
    ("served_mixed",
     "the same reads beside writes: mutations, epoch bumps and lineage invalidation"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
IN_PROCESS = WORKLOAD_NAMES[:3]

#: (name, unit, better, bound).  Every workload reports every metric;
#: README.md says what one "operation" and one "pass" is on each.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s_p50", "s", "lower", 0.20),
    ("stmt_s_geomean", "s", "lower", 0.20),
    ("throughput_rps", "1/s", "higher", 0.20),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p95", "ms", "lower", 0.25),
    ("write_latency_ms_p50", "ms", "lower", 0.25),
    ("write_latency_ms_p95", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: (name, unit, better).  A layer the workload never enters reads 0; a
#: probe whose public function is gone reads -1 with the reason printed.
PER_LAYER = (
    ("query.parse_us", "us", "lower"),
    ("query.plan_us", "us", "lower"),
    ("query.rule_firings", "count", "lower"),
    ("query.step1_s", "s", "lower"),
    ("query.step1_rows_out", "count", "lower"),
    ("db.index_build_s", "s", "lower"),
    ("db.mutate_us", "us", "lower"),
    ("db.generation_bumps", "count", "lower"),
    ("algebra.normalize_s", "s", "lower"),
    ("core.compile_s", "s", "lower"),
    ("core.dtree_nodes", "count", "lower"),
    ("core.mutex_nodes", "count", "lower"),
    ("prob.distribution_s", "s", "lower"),
    ("prob.distribution_cost", "count", "lower"),
    ("prob.max_distribution_size", "count", "lower"),
    ("engine.select_s", "s", "lower"),
    ("engine.row_overhead_us", "us", "lower"),
    ("engine.approx_s", "s", "lower"),
    ("engine.approx_expansions", "count", "lower"),
    ("engine.mc_worlds_per_s", "1/s", "higher"),
    ("engine.mc_samples", "count", "lower"),
    ("engine.mc_batched", "count", "higher"),
    ("codegen.kernel_compile_s", "s", "lower"),
    ("codegen.bind_s", "s", "lower"),
    ("codegen.world_us", "us", "lower"),
    ("codegen.kernels_compiled", "count", "lower"),
    ("codegen.kernel_cache_hits", "count", "higher"),
    ("parallel.compile_speedup_w2", "ratio", "higher"),
    ("parallel.mc_speedup_w2", "ratio", "higher"),
    ("parallel.fallbacks", "count", "lower"),
    ("engine.distribution_hit_ratio", "ratio", "higher"),
    ("engine.plan_hit_ratio", "ratio", "higher"),
    ("server.statement_hit_ratio", "ratio", "higher"),
    ("server.statement_evictions", "count", "lower"),
    ("engine.invalidated_per_write", "count", "lower"),
    ("engine.recompiled_per_write", "count", "lower"),
    ("server.execute_ms", "ms", "lower"),
    ("server.mutate_ms", "ms", "lower"),
    ("server.wire_overhead_ms", "ms", "lower"),
    ("server.encode_us", "us", "lower"),
    ("server.response_bytes", "count", "lower"),
    ("server.tcp_latency_ms_p50", "ms", "lower"),
    ("server.cpu_s_per_kreq", "s", "lower"),
    ("server.hot_latency_ms_p50", "ms", "lower"),
    ("server.adhoc_latency_ms_p50", "ms", "lower"),
    ("server.latency_ms_p99", "ms", "lower"),
    ("server.shed", "count", "lower"),
    ("server.degraded", "count", "lower"),
    ("failed_share", "ratio", "lower"),
    ("harness.slowdown", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

#: Counts that must repeat bit-for-bit for a fixed seed.
EXACT_COUNTS = frozenset({
    "query.rule_firings",
    "query.step1_rows_out",
    "db.generation_bumps",
    "core.dtree_nodes",
    "core.mutex_nodes",
    "prob.distribution_cost",
    "prob.max_distribution_size",
    "engine.approx_expansions",
    "engine.mc_samples",
})


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
