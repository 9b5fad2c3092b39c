//! Registry-wide shard-conformance suite: a build over partitioned CSR
//! shards is **byte-identical** to the build over the shared adjacency
//! array — for every algorithm in the catalogue, every shard count in
//! {1, 2, 4, 7}, and both partition policies.
//!
//! This is the enforcement arm of `usnae_graph::partition`: the sharded
//! layout may only change *where* adjacency bytes are read from, never
//! the built structure. The contract covers the exact weighted edge
//! stream (insertion order and provenance included), the trace, the
//! certified `(α, β)`, and the stream fingerprint — the same
//! no-exceptions standard `tests/parallel_determinism.rs` holds thread
//! counts to.
//!
//! Two oracles are used:
//!
//! * a fresh unpartitioned build of the same `(graph, config)` (the
//!   run-to-run determinism suite guarantees it is *the* reference);
//! * the golden reference streams checked into `tests/data/` — fixed
//!   files, so a shard-merge regression is caught **without rebuilding
//!   the oracle** (and a simultaneous drift of both paths cannot mask
//!   itself).
//!
//! The CI `shard-matrix` leg sets `USNAE_TEST_SHARDS` to focus one job on
//! one shard count; without it the suite sweeps {1, 2, 4, 7}.

mod common;

use common::{fixture_graphs, golden_config, golden_fingerprint, golden_path};
use usnae::api::{BuildConfig, BuildOutput, PartitionPolicy};
use usnae::graph::{generators, Graph};
use usnae::registry;

/// Shard counts to sweep; `USNAE_TEST_SHARDS` (the CI matrix) narrows the
/// sweep to one count.
fn shard_counts() -> Vec<usize> {
    match std::env::var("USNAE_TEST_SHARDS") {
        Ok(v) => {
            let s: usize = v
                .parse()
                .expect("USNAE_TEST_SHARDS must be a positive integer");
            assert!(s >= 1, "USNAE_TEST_SHARDS must be >= 1");
            vec![s]
        }
        Err(_) => vec![1, 2, 4, 7],
    }
}

/// Seeded inputs per construction; CONGEST simulations get smaller
/// instances of the same family (mirrors `parallel_determinism.rs`).
fn input(seed: u64, congest: bool) -> Graph {
    let n = if congest { 70 } else { 130 };
    generators::gnp_connected(n, 8.0 / n as f64, seed).expect("valid gnp parameters")
}

fn config(seed: u64, shards: usize, partition: PartitionPolicy) -> BuildConfig {
    BuildConfig {
        seed,
        shards,
        partition,
        traced: true,
        ..BuildConfig::default()
    }
}

/// The constructions whose exploration phases actually read from shards
/// (and therefore record per-shard layout stats). The CONGEST simulations
/// and TZ06 accept the knobs but keep the shared array.
const SHARDED: [&str; 6] = [
    "centralized",
    "fast-centralized",
    "spanner",
    "ep01",
    "en17a",
    "em19",
];

/// Full parity: exact stream + provenance, counts, certification, trace,
/// CONGEST metrics.
fn assert_outputs_identical(ctx: &str, a: &BuildOutput, b: &BuildOutput) {
    assert_eq!(
        a.emulator.provenance(),
        b.emulator.provenance(),
        "{ctx}: weighted edge stream / provenance diverged"
    );
    assert_eq!(
        a.stream_fingerprint(),
        b.stream_fingerprint(),
        "{ctx}: stream fingerprint diverged"
    );
    assert_eq!(a.num_edges(), b.num_edges(), "{ctx}: edge count diverged");
    assert_eq!(a.certified, b.certified, "{ctx}: certified (α, β) diverged");
    assert_eq!(a.size_bound, b.size_bound, "{ctx}: size bound diverged");
    let summaries = |o: &BuildOutput| o.trace.as_ref().map(|t| t.phase_summaries());
    assert_eq!(summaries(a), summaries(b), "{ctx}: phase trace diverged");
    match (&a.congest, &b.congest) {
        (None, None) => {}
        (Some(ca), Some(cb)) => {
            assert_eq!(ca.metrics, cb.metrics, "{ctx}: CONGEST metrics diverged");
        }
        _ => panic!("{ctx}: congest stats presence diverged"),
    }
}

#[test]
fn every_registry_algorithm_is_shard_invariant() {
    let counts = shard_counts();
    for c in registry::all() {
        let congest = c.supports().congest;
        for seed in [1u64, 13] {
            let g = input(seed, congest);
            let baseline = c
                .build(&g, &config(seed, 0, PartitionPolicy::Range))
                .unwrap_or_else(|e| panic!("{} seed={seed} unpartitioned: {e}", c.name()));
            assert!(
                baseline.stats.shards.is_empty(),
                "{}: unpartitioned build must record no shards",
                c.name()
            );
            for policy in PartitionPolicy::all() {
                for &shards in &counts {
                    let sharded = c
                        .build(&g, &config(seed, shards, policy))
                        .unwrap_or_else(|e| {
                            panic!("{} seed={seed} {policy} x{shards}: {e}", c.name())
                        });
                    let ctx = format!("{} seed={seed} {policy} x{shards}", c.name());
                    assert_outputs_identical(&ctx, &baseline, &sharded);
                }
            }
        }
    }
}

#[test]
fn sharded_builds_match_the_golden_reference_streams() {
    // Fixed oracle: the checked-in golden fingerprints. No unpartitioned
    // rebuild happens here — a shard-merge regression that somehow also
    // moved the live baseline is still caught against the committed files.
    let cfg = golden_config();
    for (tag, g) in fixture_graphs() {
        for c in registry::all() {
            let path = golden_path(tag, c.name());
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden stream {} ({e}); see tests/golden_streams.rs",
                    path.display()
                )
            });
            let golden = golden_fingerprint(&text)
                .unwrap_or_else(|| panic!("{}: no fingerprint header", path.display()));
            for policy in PartitionPolicy::all() {
                for shards in [2usize, 7] {
                    let out = c
                        .build(
                            &g,
                            &BuildConfig {
                                shards,
                                partition: policy,
                                ..cfg.clone()
                            },
                        )
                        .unwrap_or_else(|e| panic!("{} on {tag}: {e}", c.name()));
                    assert_eq!(
                        out.stream_fingerprint(),
                        golden,
                        "{} on {tag} ({policy} x{shards}): sharded build diverged from \
                         the golden reference stream {}",
                        c.name(),
                        path.display()
                    );
                }
            }
        }
    }
}

#[test]
fn shards_compose_with_threads() {
    // The two axes are independent: a partitioned layout read by a
    // multi-threaded fan-out still reproduces the sequential shared-array
    // stream. Swept over the sharded family (the CONGEST/TZ06 rows are
    // covered by the invariance test above).
    let counts = shard_counts();
    for name in SHARDED {
        let c = registry::find(name).unwrap();
        let g = input(7, false);
        let baseline = c.build(&g, &config(7, 0, PartitionPolicy::Range)).unwrap();
        for &shards in &counts {
            for threads in [2usize, 4] {
                let cfg = BuildConfig {
                    threads,
                    ..config(7, shards, PartitionPolicy::DegreeBalanced)
                };
                let out = c.build(&g, &cfg).unwrap();
                assert_outputs_identical(
                    &format!("{name} threads={threads} shards={shards}"),
                    &baseline,
                    &out,
                );
                assert_eq!(out.stats.threads, threads);
            }
        }
    }
}

#[test]
fn partitioned_builds_record_per_shard_layout_stats() {
    let g = input(3, false);
    let g_congest = input(3, true);
    for c in registry::all() {
        let congest = c.supports().congest;
        let graph = if congest { &g_congest } else { &g };
        let n = graph.num_vertices();
        for &shards in &[1usize, 4, 7] {
            let out = c
                .build(graph, &config(3, shards, PartitionPolicy::DegreeBalanced))
                .unwrap();
            if SHARDED.contains(&c.name()) {
                let stats = &out.stats.shards;
                assert_eq!(stats.len(), shards.min(n), "{}", c.name());
                assert_eq!(
                    stats.iter().map(|s| s.vertices).sum::<usize>(),
                    n,
                    "{}: shards must own every vertex exactly once",
                    c.name()
                );
                let local: usize = stats.iter().map(|s| s.local_edges).sum();
                let cut: usize = stats.iter().map(|s| s.cut_edges).sum();
                assert_eq!(
                    local + cut / 2,
                    graph.num_edges(),
                    "{}: local + cut edges must account for every edge",
                    c.name()
                );
                for (i, s) in stats.iter().enumerate() {
                    assert_eq!(s.shard, i, "{}: shard order", c.name());
                    assert!(s.vertices > 0, "{}: empty shard", c.name());
                }
            } else {
                assert!(
                    out.stats.shards.is_empty(),
                    "{}: runs no sharded exploration phase, must record no shards",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn cache_serves_one_entry_across_all_layouts() {
    // `shards`/`partition` are output-irrelevant and deliberately not part
    // of the cache key: an entry built unpartitioned must serve a
    // partitioned request (and vice versa) with the identical stream.
    use usnae::api::CacheStatus;
    use usnae::core::cache::build_cached;
    let dir = std::env::temp_dir().join(format!("usnae-shard-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = input(19, false);
    let c = registry::find("fast-centralized").unwrap();
    let unpartitioned = BuildConfig {
        seed: 19,
        ..BuildConfig::default()
    };
    let cold = build_cached(c.as_ref(), &g, &unpartitioned, &dir).unwrap();
    assert_eq!(cold.stats.cache, CacheStatus::Miss);
    let partitioned = BuildConfig {
        shards: 4,
        partition: PartitionPolicy::DegreeBalanced,
        ..unpartitioned
    };
    let warm = build_cached(c.as_ref(), &g, &partitioned, &dir).unwrap();
    assert_eq!(
        warm.stats.cache,
        CacheStatus::Hit,
        "a partitioned request must hit the unpartitioned entry"
    );
    assert_eq!(warm.stream_fingerprint(), cold.stream_fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}
