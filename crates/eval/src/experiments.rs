//! Experiment runners E1–E8 and the figure anatomies (see `DESIGN.md` §4).
//!
//! Each runner returns a [`Table`]; the *shape* of the numbers is the
//! reproduced result (size ratios ≤ 1 against `n^(1+1/κ)`, edges/n → 1 in
//! the ultra-sparse regime, measured β far below certified β, our spanner
//! sparser than EM19, zero knowledge violations distributedly, …).
//!
//! All constructions are reached through the unified API: one-off builds go
//! through [`Emulator::builder`], and the lineage comparisons (E7/E8)
//! iterate [`usnae_baselines::registry`] instead of hardcoding algorithm
//! lists — registering a new [`Construction`](usnae_core::api::Construction)
//! adds it to those tables with no experiment edits.

use crate::table::{fmt_f64, Table};
use crate::workloads::{congest_suite, standard_suite, Workload};
use usnae_baselines::registry;
use usnae_core::api::{
    Algorithm, BuildConfig, Emulator, PartitionPolicy, ProcessingOrder, QueryEngine, TransportKind,
};
use usnae_core::verify::{audit_stretch, is_subgraph_spanner};
use usnae_graph::distance::{sample_pairs, Apsp};

/// κ in the ultra-sparse regime: `log₂²n = ω(log n)` (Corollary 2.15).
pub fn ultra_sparse_kappa(n: usize) -> u32 {
    let l = (n as f64).log2();
    ((l * l).round() as u32).max(2)
}

/// E1 — the headline size bound (Cor 2.14): `|H| ≤ n^(1+1/κ)` with leading
/// constant exactly 1, across families, sizes, κ.
pub fn e1_size(sizes: &[usize], kappas: &[u32], epsilon: f64, seed: u64) -> Table {
    let mut t = Table::new(
        "E1 (Cor 2.14): emulator size vs n^(1+1/kappa), leading constant 1",
        &["family", "n", "kappa", "edges", "bound", "ratio"],
    );
    for &n in sizes {
        for w in standard_suite(n, seed) {
            let n_actual = w.graph.num_vertices();
            for &kappa in kappas {
                let out = Emulator::builder(&w.graph)
                    .epsilon(epsilon)
                    .kappa(kappa)
                    .algorithm(Algorithm::Centralized)
                    .build()
                    .expect("valid params");
                let bound = out.size_bound.expect("centralized build is bounded");
                t.push_row(vec![
                    w.name.into(),
                    n_actual.to_string(),
                    kappa.to_string(),
                    out.num_edges().to_string(),
                    fmt_f64(bound),
                    fmt_f64(out.num_edges() as f64 / bound),
                ]);
            }
        }
    }
    t
}

/// E2 — ultra-sparse regime (Cor 2.15): `κ = log²n ⇒ |H| = n + o(n)`;
/// `edges/n` must approach 1 from above as `n` grows.
pub fn e2_ultra_sparse(sizes: &[usize], epsilon: f64, seed: u64) -> Table {
    let mut t = Table::new(
        "E2 (Cor 2.15): ultra-sparse emulators, kappa = log^2 n",
        &[
            "family",
            "n",
            "kappa",
            "edges",
            "edges_over_n",
            "bound_over_n",
        ],
    );
    for &n in sizes {
        for w in standard_suite(n, seed) {
            let n_actual = w.graph.num_vertices();
            let kappa = ultra_sparse_kappa(n_actual);
            let out = Emulator::builder(&w.graph)
                .epsilon(epsilon)
                .kappa(kappa)
                .build()
                .expect("valid params");
            t.push_row(vec![
                w.name.into(),
                n_actual.to_string(),
                kappa.to_string(),
                out.num_edges().to_string(),
                fmt_f64(out.num_edges() as f64 / n_actual as f64),
                fmt_f64(out.size_bound.expect("bounded") / n_actual as f64),
            ]);
        }
    }
    t
}

/// E3 — stretch audit (Cor 2.13 / 2.11): sampled-pair distances obey
/// `d_H ≤ α·d_G + β` with the certified pair; the measured "needed β"
/// shows how loose the worst case is.
pub fn e3_stretch(n: usize, kappas: &[u32], epsilons: &[f64], pairs: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E3 (Cor 2.13): stretch audit, certified vs measured",
        &[
            "family",
            "kappa",
            "eps",
            "alpha_cert",
            "beta_cert",
            "beta_closed_form",
            "max_ratio",
            "needed_beta",
            "violations",
        ],
    );
    for w in standard_suite(n, seed) {
        let sampled = sample_pairs(&w.graph, pairs, seed + 17);
        for &kappa in kappas {
            for &eps in epsilons {
                let out = Emulator::builder(&w.graph)
                    .epsilon(eps)
                    .kappa(kappa)
                    .build()
                    .expect("valid params");
                let (alpha, beta) = out.certified.expect("centralized certifies");
                let closed_form = BuildConfig {
                    epsilon: eps,
                    kappa,
                    ..BuildConfig::default()
                }
                .centralized_params()
                .expect("valid params")
                .beta_closed_form();
                let report = audit_stretch(&w.graph, out.emulator.graph(), alpha, beta, &sampled);
                t.push_row(vec![
                    w.name.into(),
                    kappa.to_string(),
                    fmt_f64(eps),
                    fmt_f64(alpha),
                    fmt_f64(beta),
                    fmt_f64(closed_form),
                    fmt_f64(report.max_ratio),
                    fmt_f64(report.needed_beta),
                    (report.violations + report.shortening_violations + report.unreachable_pairs)
                        .to_string(),
                ]);
            }
        }
    }
    t
}

/// E4/E5 — the distributed construction (Cor 3.11 / 3.12): measured CONGEST
/// rounds vs the paper's `O(β·n^ρ)` budget, size bound, and the
/// both-endpoints knowledge check. With `ultra`, κ is set to `log²n` (E5).
pub fn e4_congest(
    n: usize,
    kappa: u32,
    rhos: &[f64],
    epsilon: f64,
    seed: u64,
    ultra: bool,
) -> Table {
    let mut t = Table::new(
        if ultra {
            "E5 (Cor 3.12): distributed ultra-sparse emulators"
        } else {
            "E4 (Cor 3.11): distributed CONGEST construction"
        },
        &[
            "family",
            "kappa",
            "rho",
            "rounds",
            "paper_budget",
            "messages",
            "edges",
            "bound",
            "knowledge_bad",
        ],
    );
    for w in congest_suite(n, seed) {
        let n_actual = w.graph.num_vertices();
        let kappa = if ultra {
            ultra_sparse_kappa(n_actual)
        } else {
            kappa
        };
        for &rho in rhos {
            let cfg = BuildConfig {
                epsilon,
                kappa,
                rho,
                ..BuildConfig::default()
            };
            // Skip only parameter incompatibilities (rho vs kappa); a
            // CongestError from the build is a protocol bug and must panic.
            let Ok(params) = cfg.distributed_params() else {
                continue;
            };
            let out = Algorithm::Distributed
                .construction()
                .build(&w.graph, &cfg)
                .expect("protocol completes");
            let budget = params.round_budget(n_actual);
            let stats = out.congest.as_ref().expect("distributed builds report");
            t.push_row(vec![
                w.name.into(),
                kappa.to_string(),
                fmt_f64(rho),
                stats.metrics.rounds.to_string(),
                fmt_f64(budget),
                stats.metrics.messages.to_string(),
                out.num_edges().to_string(),
                fmt_f64(out.size_bound.expect("bounded")),
                stats.knowledge_violations.to_string(),
            ]);
        }
    }
    t
}

/// E7 — spanner comparison (Cor 4.4): the §4 spanner vs the EM19 baseline;
/// ours must be a subgraph and (on dense inputs) sparser.
pub fn e7_spanner(sizes: &[usize], kappas: &[u32], epsilon: f64, rho: f64, seed: u64) -> Table {
    let mut t = Table::new(
        "E7 (Cor 4.4): spanner size, ours vs EM19 baseline",
        &[
            "family",
            "n",
            "kappa",
            "ours",
            "em19",
            "em19_over_ours",
            "input_edges",
            "subgraph",
        ],
    );
    let em19 = registry::find("em19").expect("baseline registered");
    for &n in sizes {
        for w in standard_suite(n, seed) {
            let n_actual = w.graph.num_vertices();
            for &kappa in kappas {
                // Raw-ε mode: the rescaled ε collapses all phase structure
                // at simulable sizes (δ_1 > diameter); see params docs.
                let cfg = BuildConfig {
                    epsilon,
                    kappa,
                    rho,
                    raw_epsilon: true,
                    ..BuildConfig::default()
                };
                if cfg.spanner_params().is_err() || cfg.distributed_params().is_err() {
                    continue; // kappa/rho combination out of range
                }
                let ours = crate::caching::sweep_build(
                    Algorithm::Spanner.construction().as_ref(),
                    &w.graph,
                    &cfg,
                )
                .expect("validated above");
                let theirs = crate::caching::sweep_build(em19.as_ref(), &w.graph, &cfg)
                    .expect("validated above");
                t.push_row(vec![
                    w.name.into(),
                    n_actual.to_string(),
                    kappa.to_string(),
                    ours.num_edges().to_string(),
                    theirs.num_edges().to_string(),
                    fmt_f64(theirs.num_edges() as f64 / ours.num_edges().max(1) as f64),
                    w.graph.num_edges().to_string(),
                    is_subgraph_spanner(&w.graph, ours.emulator.graph()).to_string(),
                ]);
            }
        }
    }
    t
}

/// E8 — emulator lineage comparison (§1.1): every *emulator* construction
/// in the registry (paper and baseline alike) at equal (ε, κ), one row per
/// (family, κ, algorithm). Registering a new construction adds its rows
/// automatically.
pub fn e8_baselines(n: usize, kappas: &[u32], epsilon: f64, seed: u64) -> Table {
    let mut t = Table::new(
        "E8: emulator sizes across the whole registry at equal (eps, kappa)",
        &["family", "kappa", "algo", "edges", "bound"],
    );
    // The CONGEST emulator is excluded on cost grounds only (it rebuilds
    // the same structure as fast-centralized through the simulator).
    let lineup: Vec<_> = registry::emulators()
        .into_iter()
        .filter(|c| !c.supports().congest)
        .collect();
    for w in standard_suite(n, seed) {
        for &kappa in kappas {
            let cfg = BuildConfig {
                epsilon,
                kappa,
                raw_epsilon: true,
                seed: seed + 23,
                ..BuildConfig::default()
            };
            for c in &lineup {
                let Ok(out) = crate::caching::sweep_build(c.as_ref(), &w.graph, &cfg) else {
                    continue; // parameters out of range for this lineage
                };
                t.push_row(vec![
                    w.name.into(),
                    kappa.to_string(),
                    c.name().into(),
                    out.num_edges().to_string(),
                    out.size_bound.map_or_else(|| "-".into(), fmt_f64),
                ]);
            }
        }
    }
    t
}

/// E9 — query accuracy (the serving half): every emulator lineage in the
/// registry answers the same seeded query set through a
/// [`QueryEngine`], and the observed worst case (max multiplicative
/// ratio, needed additive β) is tabled against the certified `(α, β)` —
/// for the exact-path engine and for a `landmarks`-landmark index
/// (certified at `(α, β + 2R)`). Violation counts must be zero wherever
/// a bound is certified; uncertified baselines show `-` and are checked
/// for the lower bound only.
pub fn e9_query_accuracy(
    n: usize,
    kappa: u32,
    epsilon: f64,
    pairs: usize,
    landmarks: usize,
    seed: u64,
) -> Table {
    let mut t = Table::new(
        "E9: observed vs certified stretch through the query engine",
        &[
            "family",
            "algo",
            "edges",
            "alpha_cert",
            "beta_cert",
            "max_ratio",
            "needed_beta",
            "lm_beta_cert",
            "lm_needed_beta",
            "violations",
        ],
    );
    // The CONGEST lineages are excluded on cost grounds only, as in E8
    // (they rebuild fast-centralized's structure through the simulator);
    // `tests/query_conformance.rs` serves the full registry.
    let lineup: Vec<_> = registry::all()
        .into_iter()
        .filter(|c| !c.supports().congest)
        .collect();
    for w in standard_suite(n, seed) {
        let sampled = sample_pairs(&w.graph, pairs, seed + 17);
        let apsp = Apsp::new(&w.graph);
        let cfg = BuildConfig {
            epsilon,
            kappa,
            raw_epsilon: true,
            seed: seed + 23,
            ..BuildConfig::default()
        };
        for c in &lineup {
            let Ok(out) = crate::caching::sweep_build(c.as_ref(), &w.graph, &cfg) else {
                continue; // parameters out of range for this lineage
            };
            let lm_engine = QueryEngine::new(out.emulator.clone(), out.algorithm, out.certified)
                .with_landmarks(landmarks);
            let engine = out.into_query_engine();
            let (alpha, beta) = engine.guarantee();
            let (_, lm_beta) = lm_engine.landmark_guarantee();
            let answers = engine.distances(&sampled);
            let mut max_ratio = 1.0f64;
            let mut needed_beta = 0.0f64;
            let mut lm_needed_beta = 0.0f64;
            let mut violations = 0usize;
            for (&(u, v), a) in sampled.iter().zip(&answers) {
                let exact = apsp.distance(u, v);
                if !a.holds_against(exact) {
                    violations += 1;
                }
                let lm = lm_engine.approx_distance(u, v);
                if !lm.holds_against(exact) {
                    violations += 1;
                }
                let (Some(d), Some(got)) = (exact, a.value) else {
                    continue;
                };
                if d > 0 {
                    max_ratio = max_ratio.max(got as f64 / d as f64);
                }
                needed_beta = needed_beta.max(got as f64 - alpha * d as f64);
                if let Some(lm_got) = lm.value {
                    lm_needed_beta = lm_needed_beta.max(lm_got as f64 - alpha * d as f64);
                }
            }
            let show_beta = |b: f64| {
                if b.is_finite() {
                    fmt_f64(b)
                } else {
                    "-".to_string()
                }
            };
            t.push_row(vec![
                w.name.into(),
                c.name().into(),
                engine.num_edges().to_string(),
                fmt_f64(alpha),
                show_beta(beta),
                fmt_f64(max_ratio),
                fmt_f64(needed_beta),
                show_beta(lm_beta),
                fmt_f64(lm_needed_beta),
                violations.to_string(),
            ]);
        }
    }
    t
}

/// E10 — measured vs simulated message complexity: the same logical
/// construction counted two ways on the same input. The fast-centralized
/// build on the channel worker transport *measures* real traffic between
/// `shards` shard workers ([`BuildStats::messages`](usnae_core::api::BuildStats)
/// — frontier candidates, rank exchange, and the round-end shipping of
/// the output stream to the workers' retained partitions plus the lazy
/// fetch that merges them back); the distributed build *simulates* the
/// §3 CONGEST protocol and counts its idealized per-round messages. The
/// `msg_ratio` column (measured / simulated) is the engineering-overhead
/// factor of the worker protocol relative to the model — the paper's
/// headline message-complexity metric made empirical. The parallel bench
/// emits the same ratio into the `BENCH_<sha>.json` trend.
pub fn e10_message_ratio(
    n: usize,
    kappa: u32,
    rho: f64,
    epsilon: f64,
    shards: usize,
    seed: u64,
) -> Table {
    let mut t = Table::new(
        "E10: measured worker messages vs CONGEST-simulated counts",
        &[
            "family",
            "n",
            "shards",
            "measured_rounds",
            "measured_msgs",
            "measured_bytes",
            "shard_pairs",
            "sim_rounds",
            "sim_msgs",
            "msg_ratio",
        ],
    );
    for w in congest_suite(n, seed) {
        let n_actual = w.graph.num_vertices();
        let measured = Emulator::builder(&w.graph)
            .epsilon(epsilon)
            .kappa(kappa)
            .algorithm(Algorithm::FastCentralized)
            .partition(PartitionPolicy::DegreeBalanced, shards)
            .transport(TransportKind::Channel)
            .build()
            .expect("valid params");
        let m = measured
            .stats
            .messages
            .as_ref()
            .expect("worker builds measure messages");
        let sim = Emulator::builder(&w.graph)
            .epsilon(epsilon)
            .kappa(kappa)
            .rho(rho)
            .algorithm(Algorithm::Distributed)
            .build()
            .expect("valid params");
        let s = &sim
            .congest
            .as_ref()
            .expect("distributed builds report")
            .metrics;
        t.push_row(vec![
            w.name.into(),
            n_actual.to_string(),
            shards.to_string(),
            m.rounds.to_string(),
            m.messages.to_string(),
            m.bytes.to_string(),
            m.pairs.len().to_string(),
            s.rounds.to_string(),
            s.messages.to_string(),
            fmt_f64(m.messages as f64 / s.messages.max(1) as f64),
        ]);
    }
    t
}

/// F1–F3 anatomy: edge kinds per phase under different processing orders
/// (the star example's order-dependence is visible in the `star` rows).
pub fn anatomy(workloads: &[Workload], kappa: u32, epsilon: f64) -> Table {
    let mut t = Table::new(
        "F1-F3: edge anatomy by processing order",
        &[
            "family",
            "order",
            "phase",
            "clusters",
            "unclustered",
            "superclusters",
            "interconnect_edges",
            "supercluster_edges",
            "buffer_joins",
        ],
    );
    for w in workloads {
        for (order, name) in [
            (ProcessingOrder::ById, "by-id"),
            (ProcessingOrder::ByIdDesc, "by-id-desc"),
            (ProcessingOrder::ByDegreeDesc, "hubs-first"),
            (ProcessingOrder::ByDegreeAsc, "hubs-last"),
        ] {
            let out = Emulator::builder(&w.graph)
                .epsilon(epsilon)
                .kappa(kappa)
                .raw_epsilon(true)
                .order(order)
                .traced(true)
                .build()
                .expect("valid params");
            let trace = out.trace.expect("traced build");
            for ph in trace.phase_summaries() {
                t.push_row(vec![
                    w.name.into(),
                    name.into(),
                    ph.phase.to_string(),
                    ph.num_clusters.to_string(),
                    ph.num_unclustered.to_string(),
                    ph.num_superclusters.to_string(),
                    ph.interconnection_edges.to_string(),
                    ph.superclustering_edges.to_string(),
                    ph.buffer_join_edges.to_string(),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::figure_suite;

    #[test]
    fn e1_all_ratios_at_most_one() {
        let t = e1_size(&[150], &[2, 4], 0.5, 3);
        assert!(t.num_rows() > 0);
        for r in t.column_f64("ratio") {
            assert!(r <= 1.0 + 1e-9, "ratio {r} > 1");
        }
    }

    #[test]
    fn e2_edges_over_n_near_one() {
        let t = e2_ultra_sparse(&[256], 0.5, 5);
        for r in t.column_f64("edges_over_n") {
            assert!(r <= 1.10, "edges/n = {r}");
        }
    }

    #[test]
    fn e3_zero_violations() {
        let t = e3_stretch(120, &[3], &[0.5], 120, 7);
        for v in t.column_f64("violations") {
            assert_eq!(v, 0.0);
        }
        // Certified β dominates the measured requirement.
        let cert = t.column_f64("beta_cert");
        let need = t.column_f64("needed_beta");
        for (c, n) in cert.iter().zip(&need) {
            assert!(n <= c, "needed {n} > certified {c}");
        }
    }

    #[test]
    fn e4_zero_knowledge_violations_and_size_ok() {
        let t = e4_congest(64, 4, &[0.5], 0.5, 9, false);
        assert!(t.num_rows() > 0);
        for v in t.column_f64("knowledge_bad") {
            assert_eq!(v, 0.0);
        }
        let edges = t.column_f64("edges");
        let bounds = t.column_f64("bound");
        for (e, b) in edges.iter().zip(&bounds) {
            assert!(e <= b, "{e} > {b}");
        }
    }

    #[test]
    fn e10_ratio_is_positive_and_both_counters_report() {
        let t = e10_message_ratio(64, 4, 0.5, 0.5, 2, 9);
        assert!(t.num_rows() > 0);
        for m in t.column_f64("measured_msgs") {
            assert!(m > 0.0, "worker builds must measure traffic");
        }
        for s in t.column_f64("sim_msgs") {
            assert!(s > 0.0, "the simulator must count messages");
        }
        for r in t.column_f64("msg_ratio") {
            assert!(r > 0.0 && r.is_finite(), "ratio {r}");
        }
    }

    #[test]
    fn e7_ours_is_subgraph() {
        let t = e7_spanner(&[120], &[4], 0.5, 0.5, 11);
        let col = t.column("subgraph").unwrap();
        for i in 0..t.num_rows() {
            assert_eq!(t.cell(i, col), Some("true"));
        }
    }

    #[test]
    fn e8_covers_every_noncongesting_emulator_lineage() {
        let t = e8_baselines(100, &[4], 0.5, 13);
        let algos: std::collections::HashSet<String> = {
            let col = t.column("algo").unwrap();
            (0..t.num_rows())
                .filter_map(|i| t.cell(i, col).map(str::to_string))
                .collect()
        };
        for expected in ["centralized", "fast-centralized", "ep01", "tz06", "en17a"] {
            assert!(algos.contains(expected), "missing {expected}: {algos:?}");
        }
        assert!(!algos.contains("distributed"), "congest lineage excluded");
    }

    #[test]
    fn e9_zero_violations_and_certified_dominates_needed() {
        let t = e9_query_accuracy(96, 3, 0.5, 60, 4, 7);
        assert!(t.num_rows() > 0);
        for v in t.column_f64("violations") {
            assert_eq!(v, 0.0);
        }
        for r in t.column_f64("max_ratio") {
            assert!(r >= 1.0, "answers never undershoot: {r}");
        }
        // Wherever a β is certified, the measured requirement sits under it,
        // and the landmark certificate is at least the exact one.
        let beta_col = t.column("beta_cert").unwrap();
        let lm_beta_col = t.column("lm_beta_cert").unwrap();
        let needed = t.column_f64("needed_beta");
        let lm_needed = t.column_f64("lm_needed_beta");
        let mut certified_rows = 0;
        for i in 0..t.num_rows() {
            let Some(beta) = t.cell(i, beta_col).and_then(|s| s.parse::<f64>().ok()) else {
                continue;
            };
            certified_rows += 1;
            assert!(
                needed[i] <= beta,
                "row {i}: needed {} > certified {beta}",
                needed[i]
            );
            let lm_beta: f64 = t.cell(i, lm_beta_col).unwrap().parse().unwrap();
            assert!(lm_beta >= beta);
            assert!(lm_needed[i] <= lm_beta);
        }
        assert!(certified_rows > 0, "paper lineages certify");
        // The sweep covers paper constructions and baselines alike.
        let algo_col = t.column("algo").unwrap();
        let algos: std::collections::HashSet<&str> = (0..t.num_rows())
            .filter_map(|i| t.cell(i, algo_col))
            .collect();
        for expected in ["centralized", "spanner", "tz06", "em19"] {
            assert!(algos.contains(expected), "missing {expected}: {algos:?}");
        }
    }

    #[test]
    fn anatomy_star_orders_differ() {
        let t = anatomy(&figure_suite(64), 2, 0.5);
        // Star under hubs-first has superclusters in phase 0; hubs-last none.
        let fam = t.column("family").unwrap();
        let ord = t.column("order").unwrap();
        let phase = t.column("phase").unwrap();
        let sc = t.column("superclusters").unwrap();
        let mut first = None;
        let mut last = None;
        for i in 0..t.num_rows() {
            if t.cell(i, fam) == Some("star") && t.cell(i, phase) == Some("0") {
                match t.cell(i, ord) {
                    Some("hubs-first") => first = t.cell(i, sc).map(|s| s.to_string()),
                    Some("hubs-last") => last = t.cell(i, sc).map(|s| s.to_string()),
                    _ => {}
                }
            }
        }
        assert_eq!(first.as_deref(), Some("1"));
        assert_eq!(last.as_deref(), Some("0"));
    }

    #[test]
    fn ultra_sparse_kappa_grows() {
        assert!(ultra_sparse_kappa(1024) >= 100);
        assert!(ultra_sparse_kappa(4096) > ultra_sparse_kappa(1024));
        assert!(ultra_sparse_kappa(4) >= 2);
    }
}
