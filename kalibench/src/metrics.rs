//! Every metric the benchmark reports, with its unit, its direction, and
//! — for the per-layer metrics — the end-to-end metric and workload it
//! should move. `BENCHMARK.json` lists the same names and units; a test
//! keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric it should move, on which workloads, and
    /// where it must not move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("unit_ms_p50", "ms", "lower", 0.25),
    e2e("unit_ms_p90", "ms", "lower", 0.25),
    e2e("units_per_s", "1/s", "higher", 0.25),
    e2e("virtual_ms_per_unit", "virtual_ms", "lower", 0.05),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("success_rate", "%", "higher", 0.01),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const MACHINE: &str =
    "unit_ms_p50, virtual_ms_per_unit on mg2_latency, schedule_churn; not jacobi_compute";
const MACHINE_SPAWN: &str = "setup_s on all workloads";
const SCHED_HIT: &str = "unit_ms_p50, virtual_ms_per_unit on mg2_latency (hit path)";
const SCHED_MISS: &str = "unit_ms_p50, virtual_ms_per_unit on schedule_churn (miss path)";
const SCHED: &str =
    "unit_ms_p50, virtual_ms_per_unit on mg2_latency (hits), schedule_churn (misses)";
const ARRAY: &str = "unit_ms_p50 on mg2_latency, schedule_churn; negligible on jacobi_compute";
const ARRAY_SPARSE: &str = "unit_ms_p50 on schedule_churn";
const RUNTIME: &str = "unit_ms_p50, units_per_s on jacobi_compute";
const SOLVERS: &str = "unit_ms_p50 on all workloads";
const LANG: &str = "no end-to-end metric: the interpreted listings are a probe; not jacobi_compute";
const SERVE: &str = "units_per_s on schedule_churn";
const SELF: &str = "unit_ms_p50 on the workloads that call the layer";

pub const PER_LAYER: [Layer; 51] = [
    layer("machine.rtt_1w_us", "us", "lower", MACHINE),
    layer("machine.rtt_4096w_us", "us", "lower", MACHINE),
    layer("machine.rtt_1w_virtual_us", "virtual_us", "lower", MACHINE),
    layer(
        "machine.rtt_4096w_virtual_us",
        "virtual_us",
        "lower",
        MACHINE,
    ),
    layer("machine.allreduce_us", "us", "lower", MACHINE),
    layer(
        "machine.allreduce_virtual_us",
        "virtual_us",
        "lower",
        MACHINE,
    ),
    layer("machine.spawn_ms", "ms", "lower", MACHINE_SPAWN),
    layer("machine.msgs_per_unit", "count", "lower", MACHINE),
    layer("machine.words_per_unit", "count", "lower", MACHINE),
    layer("machine.idle_frac", "ratio", "lower", MACHINE),
    layer("sched.builds_per_unit", "count", "lower", SCHED),
    layer("sched.hit_ratio", "ratio", "higher", SCHED_HIT),
    layer("sched.rollbacks_per_unit", "count", "lower", SCHED_MISS),
    layer("sched.evictions_per_unit", "count", "lower", SCHED_MISS),
    layer("sched.inspector_virtual_ms", "virtual_ms", "lower", SCHED),
    layer("sched.overlap_hidden_frac", "ratio", "higher", SCHED),
    layer("sched.vote_msgs_per_unit", "count", "lower", SCHED_HIT),
    layer("array.halo_refresh_us", "us", "lower", ARRAY),
    layer(
        "array.halo_refresh_virtual_us",
        "virtual_us",
        "lower",
        ARRAY,
    ),
    layer("array.exchange_words_per_unit", "count", "lower", ARRAY),
    layer(
        "array.gather_words_per_unit",
        "count",
        "lower",
        ARRAY_SPARSE,
    ),
    layer("array.spmv_warm_us", "us", "lower", ARRAY_SPARSE),
    layer("array.spmv_cold_us", "us", "lower", ARRAY_SPARSE),
    layer(
        "array.spmv_warm_virtual_us",
        "virtual_us",
        "lower",
        ARRAY_SPARSE,
    ),
    layer(
        "array.spmv_cold_virtual_us",
        "virtual_us",
        "lower",
        ARRAY_SPARSE,
    ),
    layer("runtime.points_per_s", "1/s", "higher", RUNTIME),
    layer("runtime.rows_over_point", "ratio", "higher", RUNTIME),
    layer("runtime.bytes_per_unit_computed", "B", "lower", RUNTIME),
    layer("solvers.seq_unit_ms", "ms", "lower", SOLVERS),
    layer("solvers.speedup_vs_seq", "ratio", "higher", SOLVERS),
    layer("solvers.cg_iters", "count", "lower", ARRAY_SPARSE),
    layer("kernels.flops_per_unit", "count", "lower", SOLVERS),
    layer("lang.parse_us", "us", "lower", LANG),
    layer("lang.analyze_us", "us", "lower", LANG),
    layer("lang.builds_per_unit", "count", "lower", LANG),
    layer("lang.replays_per_unit", "count", "higher", LANG),
    layer("lang.interp_over_compiled", "ratio", "lower", LANG),
    layer("lang.interp_over_compiled_virtual", "ratio", "lower", LANG),
    layer("serve.cold_rps", "1/s", "higher", SERVE),
    layer("serve.warm_rps", "1/s", "higher", SERVE),
    layer("serve.warm_over_cold", "ratio", "higher", SERVE),
    layer("serve.warm_over_cold_virtual", "ratio", "higher", SERVE),
    layer("serve.evictions_per_pass", "count", "lower", SERVE),
    layer("serve.cache_len", "count", "lower", SERVE),
    layer("self.bench_us", "us", "lower", SELF),
    layer("self.machine_us", "us", "lower", SELF),
    layer("self.array_us", "us", "lower", SELF),
    layer("self.solvers_us", "us", "lower", SELF),
    layer("self.lang_us", "us", "lower", SELF),
    layer("self.serve_us", "us", "lower", SELF),
    layer(
        "trace_overhead",
        "ratio",
        "lower",
        "none: traced over untraced unit_ms_p50",
    ),
];

/// Self time per traced unit, by the layer prefix of the span names.
pub const SELF_TIME: [(&str, &str); 6] = [
    ("self.bench_us", "bench"),
    ("self.machine_us", "machine"),
    ("self.array_us", "array"),
    ("self.solvers_us", "solvers"),
    ("self.lang_us", "lang"),
    ("self.serve_us", "serve"),
];
