//! The benchmark's metric catalogue and its result line.
//!
//! Every workload reports every metric of the catalogue it runs under:
//! the end-to-end metrics in an untraced run, the per-layer metrics in a
//! traced run. A per-layer metric of a layer the workload does not call
//! reads 0 there, which is the "no change expected" side of its
//! prediction. `BENCHMARK.json` lists the same names and units; the
//! launcher refuses a result whose names differ from it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

/// The end-to-end metrics, in report order.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", false),
        def("build_s", "s", false),
        def("build_geomean_s", "s", false),
        def("ops_per_s", "1/s", true),
        def("latency_p50_us", "us", false),
        def("latency_p99_us", "us", false),
        def("peak_rss_mb", "MB", false),
    ]
}

/// Registry algorithms in catalogue order.
pub const ALGORITHMS: [&str; 9] = [
    "centralized",
    "fast-centralized",
    "distributed",
    "spanner",
    "distributed-spanner",
    "ep01",
    "tz06",
    "en17a",
    "em19",
];

/// Algorithms that run on the CONGEST simulator.
pub const CONGEST_ALGORITHMS: [&str; 2] = ["distributed", "distributed-spanner"];

/// Algorithms the socket workload builds.
pub const SOCKET_ALGORITHMS: [&str; 2] = ["centralized", "fast-centralized"];

/// Layers, named after the workspace modules the benchmark calls into.
pub const LAYERS: [&str; 8] = [
    "graph", "engine", "registry", "congest", "workers", "cache", "oracle", "serve",
];

/// The per-layer metrics, in report order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("graph.generate_s", "s", false),
        def("graph.bfs_on_g_us", "us", false),
    ];
    for a in ALGORITHMS {
        m.push(def(format!("registry.{a}.wall_s"), "s", false));
        m.push(def(format!("registry.{a}.sys_s"), "s", false));
        m.push(def(format!("registry.{a}.minflt"), "count", false));
        m.push(def(format!("registry.{a}.peak_rss_mb"), "MB", false));
        m.push(def(format!("registry.{a}.phase0_s"), "s", false));
    }
    for a in CONGEST_ALGORITHMS {
        m.push(def(format!("congest.{a}.rounds"), "count", false));
        m.push(def(format!("congest.{a}.messages"), "count", false));
    }
    m.push(def("congest.knowledge_violations", "count", false));
    for (name, unit) in [
        ("engine.explorations_s", "s"),
        ("engine.explorations_minflt", "count"),
        ("engine.explorations_peak_rss_mb", "MB"),
        ("engine.balls_s", "s"),
        ("engine.ball_entries", "count"),
        ("engine.ruling_set_s", "s"),
        ("workers.rounds", "count"),
        ("workers.messages", "count"),
        ("workers.bytes", "B"),
        ("workers.pool_spawn_s", "s"),
        ("workers.child_cpu_s", "s"),
        ("workers.child_peak_rss_mb", "MB"),
    ] {
        m.push(def(name, unit, false));
    }
    for a in SOCKET_ALGORITHMS {
        m.push(def(format!("workers.{a}.slowdown"), "x", false));
    }
    for (name, unit, higher) in [
        ("cache.encode_store_s", "s", false),
        ("cache.snapshot_bytes", "B", false),
        ("cache.map_open_s", "s", false),
        ("oracle.open_s", "s", false),
        ("oracle.tree_builds", "count", false),
        ("oracle.hits", "count", true),
        ("oracle.hit_ratio", "ratio", true),
        ("oracle.hit_us", "us", false),
        ("oracle.tree_build_us", "us", false),
        ("oracle.tree_ns_per_edge", "ns", false),
        ("oracle.batch_qps", "1/s", true),
        ("serve.query_rtt_us.p50", "us", false),
        ("serve.query_rtt_us.p99", "us", false),
        ("serve.build_warm_us.p50", "us", false),
        ("serve.build_cold_ms.p50", "ms", false),
        ("serve.overhead_us", "us", false),
        ("serve.cache_hits", "count", true),
        ("serve.cache_misses", "count", false),
        ("serve.hit_ratio", "ratio", true),
        ("serve.cache_stores", "count", false),
        ("serve.evictions", "count", false),
        ("serve.busy", "count", false),
        ("serve.engine_reuses", "count", true),
        ("host.reference_us", "us", false),
        ("trace.overhead_frac", "ratio", false),
        ("checks.fail_ratio", "ratio", false),
    ] {
        m.push(def(name, unit, higher));
    }
    for layer in LAYERS {
        m.push(def(format!("{layer}.self_s"), "s", false));
    }
    m
}

fn number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip form: every digit as measured.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result object: `correct`, `attempted`, `failed`, and every metric
/// of `defs` with its unit (absent values read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = values.get(&d.name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            number(v),
            d.unit
        );
    }
    out.push_str("}}");
    out
}
