//! Registry-wide conformance suite for the distance-oracle query engine.
//!
//! Every algorithm in the registry serves a fixed, seeded query set over
//! the two golden fixture graphs through a [`QueryEngine`], and every
//! answer must satisfy the certified stretch
//!
//! ```text
//! d_G(u, v) <= d_hat(u, v) <= alpha * d_G(u, v) + beta
//! ```
//!
//! against an exact BFS oracle ([`Apsp`]) — where `(alpha, beta)` is the
//! pair the construction's proof object certified, threaded through the
//! backend unmodified. On top of the bound, answers must be *byte-
//! identical* across every serving configuration that cannot legally
//! change them: in-memory ([`HeapBackend`]) vs. snapshot-on-disk
//! ([`MappedBackend`]) serving, build thread counts {1, 4}, repeat
//! builds, batched vs. one-at-a-time queries, and a warm construction
//! cache ([`CacheStatus::Hit`]) vs. a cold rebuild. Run it with
//! `USNAE_NO_MMAP=1` to serve the snapshot leg through the paged reader
//! instead of an OS mapping.
//!
//! The expected answers are pinned as golden fixtures in
//! `tests/data/<graph>.<algo>.queries`. After an intentional change to a
//! construction or the engine, regenerate with:
//!
//! ```text
//! USNAE_REGEN_GOLDEN=1 cargo test --test query_conformance
//! ```
//!
//! and review the diff like source.

mod common;

use common::{fixture_graphs, golden_config, golden_queries_path, queries_text, query_pairs};
use usnae::api::{
    BuildConfig, BuildOutput, CacheStatus, HeapBackend, MappedBackend, OutputBackend, QueryEngine,
};
use usnae::core::cache::{build_cached, CacheKey, Snapshot};
use usnae::core::{EdgeKind, EdgeProvenance, Emulator};
use usnae::graph::distance::Apsp;
use usnae::registry;

fn regen_requested() -> bool {
    std::env::var("USNAE_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

/// A scratch directory under the system temp dir, wiped on create.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usnae-queryconf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The tentpole conformance sweep: registry × backends {Heap, Mapped} ×
/// build threads {1, 4} × repeat builds. Every answer must hold against
/// the exact BFS oracle under the engine's certified `(α, β)`, and the
/// serialized answer text must be byte-identical across all of it.
#[test]
fn certified_stretch_holds_and_answers_agree_across_backends_and_threads() {
    let dir = scratch("sweep");
    for (tag, g) in fixture_graphs() {
        let exact = Apsp::new(&g);
        let pairs = query_pairs(&g);
        for c in registry::all() {
            let mut reference: Option<String> = None;
            // The trailing `1` is a repeat build: same config as the first
            // leg, so it must reproduce the first leg's bytes exactly.
            for threads in [1usize, 4, 1] {
                let cfg = BuildConfig {
                    threads,
                    ..golden_config()
                };
                let out = c.build(&g, &cfg).unwrap_or_else(|e| {
                    panic!(
                        "{} failed to build {tag} with {threads} thread(s): {e}",
                        c.name()
                    )
                });
                let snap_path = dir.join(format!("{tag}.{}.usnae", c.name()));
                let key = CacheKey::new(&g, c.name(), &cfg);
                std::fs::write(&snap_path, Snapshot::from_output(key, &out).encode())
                    .expect("write snapshot");

                let heap = HeapBackend::from_output(&out);
                let disk = MappedBackend::open(&snap_path).expect("open snapshot");
                for (kind, backend) in [("heap", &heap as &dyn OutputBackend), ("mapped", &disk)] {
                    let engine = QueryEngine::open(backend).expect("open engine");
                    assert_eq!(
                        engine.store().is_mapped(),
                        kind == "mapped" && std::env::var_os("USNAE_NO_MMAP").is_none(),
                        "{}/{tag}/{kind}: where the served store lives",
                        c.name()
                    );
                    let (alpha, beta) = engine.guarantee();
                    assert_eq!(
                        backend.certified().unwrap_or((1.0, f64::INFINITY)),
                        (alpha, beta),
                        "{}/{tag}/{kind}: backend and engine disagree on the certificate",
                        c.name()
                    );
                    let batched = engine.distances(&pairs);
                    for (&(u, v), a) in pairs.iter().zip(&batched) {
                        assert!(
                            a.holds_against(exact.distance(u, v)),
                            "{}/{tag}/{kind}/t{threads}: ({u},{v}) answer {:?} violates \
                             d_G <= d_hat <= {alpha}*d_G + {beta} (exact {:?})",
                            c.name(),
                            a.value,
                            exact.distance(u, v)
                        );
                        // Batched and one-at-a-time answers are the same
                        // pure function of the pair.
                        assert_eq!(*a, engine.distance(u, v));
                    }
                    let text = queries_text(tag, c.name(), &engine, &pairs);
                    match &reference {
                        None => reference = Some(text),
                        Some(r) => assert_eq!(
                            r,
                            &text,
                            "{}/{tag}: answers drifted ({kind} backend, {threads} thread(s))",
                            c.name()
                        ),
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every construction certifies a pair the engine actually serves under:
/// certified constructions thread a finite β from the proof object, and
/// uncertified ones degrade to the always-true lower-bound-only pair.
#[test]
fn certificates_are_threaded_not_invented() {
    let (_, g) = fixture_graphs().remove(0);
    let mut finite = 0usize;
    for c in registry::all() {
        let out = c.build(&g, &golden_config()).expect("build");
        let certified = out.certified;
        let engine = out.into_query_engine();
        match certified {
            Some((a, b)) => {
                assert_eq!(engine.guarantee(), (a, b), "{}", c.name());
                assert!(a >= 1.0 && b >= 0.0 && b.is_finite(), "{}", c.name());
                finite += 1;
            }
            None => assert_eq!(engine.guarantee(), (1.0, f64::INFINITY), "{}", c.name()),
        }
    }
    assert!(
        finite >= 2,
        "expected at least two certified constructions in the registry"
    );
}

/// Golden query fixtures: the answers to the fixed query set are pinned
/// byte-for-byte per (graph, algorithm) in `tests/data/`. Regenerate with
/// `USNAE_REGEN_GOLDEN=1 cargo test --test query_conformance`.
#[test]
fn golden_query_fixtures_pin_the_answers() {
    for (tag, g) in fixture_graphs() {
        let pairs = query_pairs(&g);
        for c in registry::all() {
            let out = c.build(&g, &golden_config()).expect("build");
            let engine = out.into_query_engine();
            let got = queries_text(tag, c.name(), &engine, &pairs);
            let path = golden_queries_path(tag, c.name());
            if regen_requested() {
                std::fs::write(&path, &got)
                    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden query fixture {} ({e}); regenerate with \
                     USNAE_REGEN_GOLDEN=1 cargo test --test query_conformance",
                    path.display()
                )
            });
            assert_eq!(
                want,
                got,
                "{}/{} answers drifted from the golden fixture; if intentional, \
                 regenerate with USNAE_REGEN_GOLDEN=1 cargo test --test query_conformance",
                tag,
                c.name()
            );
        }
    }
}

/// The recorded fixtures themselves satisfy the certified stretch: each
/// file's header pair bounds each of its answer lines against the exact
/// oracle. This guards review-time edits to `tests/data/` — a fixture
/// that no one could legally regenerate fails here even before a build.
#[test]
fn golden_query_fixtures_are_certified_against_exact_distances() {
    if regen_requested() {
        return; // files are being rewritten by the pinning test this run
    }
    for (tag, g) in fixture_graphs() {
        let exact = Apsp::new(&g);
        for c in registry::all() {
            let path = golden_queries_path(tag, c.name());
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let (mut alpha, mut beta) = (f64::NAN, f64::NAN);
            if let Some(h) = text.lines().find_map(|l| l.strip_prefix("# alpha=")) {
                let mut it = h.split(" beta=");
                alpha = it.next().and_then(|v| v.trim().parse().ok()).unwrap();
                beta = it.next().and_then(|v| v.trim().parse().ok()).unwrap();
            }
            assert!(alpha >= 1.0, "{}: bad alpha header", path.display());
            let mut checked = 0usize;
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                let mut it = line.split_whitespace();
                let u: usize = it.next().unwrap().parse().unwrap();
                let v: usize = it.next().unwrap().parse().unwrap();
                let raw = it.next().unwrap();
                let d = exact
                    .distance(u, v)
                    .unwrap_or_else(|| panic!("{tag} fixture pair ({u},{v}) disconnected"));
                let got: u64 = raw.parse().unwrap_or_else(|_| {
                    panic!(
                        "{}: unreachable answer on a connected graph",
                        path.display()
                    )
                });
                assert!(
                    d <= got && (got as f64) <= alpha * d as f64 + beta,
                    "{}: recorded answer {got} for ({u},{v}) outside \
                     [{d}, {alpha}*{d}+{beta}]",
                    path.display()
                );
                checked += 1;
            }
            assert_eq!(checked, common::QUERY_COUNT, "{}", path.display());
        }
    }
}

/// Landmark routing conforms too: with a precomputed index the engine
/// answers under the *widened* certificate `(α, β + 2R)`, and every
/// landmark answer holds against the exact oracle under that pair.
#[test]
fn landmark_answers_hold_under_the_widened_certificate() {
    for (tag, g) in fixture_graphs() {
        let exact = Apsp::new(&g);
        let pairs = query_pairs(&g);
        for c in registry::all() {
            let out = c.build(&g, &golden_config()).expect("build");
            let engine = out.into_query_engine().with_landmarks(4);
            let (alpha, beta) = engine.guarantee();
            let (lm_alpha, lm_beta) = engine.landmark_guarantee();
            assert_eq!(lm_alpha, alpha, "{}/{tag}", c.name());
            assert!(lm_beta >= beta, "{}/{tag}: widening shrank beta", c.name());
            for &(u, v) in &pairs {
                let a = engine.approx_distance(u, v);
                assert_eq!((a.alpha, a.beta), (lm_alpha, lm_beta));
                assert!(
                    a.holds_against(exact.distance(u, v)),
                    "{}/{tag}: landmark answer {:?} for ({u},{v}) violates \
                     ({lm_alpha}, {lm_beta}) (exact {:?})",
                    c.name(),
                    a.value,
                    exact.distance(u, v)
                );
            }
        }
    }
}

/// End-to-end compose with the construction cache: a warm
/// [`CacheStatus::Hit`] serves the same bytes as the cold build — the
/// build-once/query-many path never changes an answer.
#[test]
fn warm_cache_hit_serves_identical_answers() {
    let dir = scratch("cache");
    let (tag, g) = fixture_graphs().remove(0);
    let pairs = query_pairs(&g);
    let cfg = golden_config();
    for c in registry::all().into_iter().take(3) {
        let cold = build_cached(c.as_ref(), &g, &cfg, &dir).expect("cold build");
        assert_eq!(cold.stats.cache, CacheStatus::Miss, "{}", c.name());
        let warm = build_cached(c.as_ref(), &g, &cfg, &dir).expect("warm build");
        assert_eq!(warm.stats.cache, CacheStatus::Hit, "{}", c.name());
        let cold_text = queries_text(tag, c.name(), &cold.into_query_engine(), &pairs);
        let warm_text = queries_text(tag, c.name(), &warm.into_query_engine(), &pairs);
        assert_eq!(
            cold_text,
            warm_text,
            "{}: warm hit changed an answer",
            c.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A path whose length saturates at `u64::MAX` leaves its end unreachable
/// on every engine: a stored maximum weight must never wrap around into a
/// short distance, whether the emulator is frozen from the heap or served
/// from a snapshot file.
#[test]
fn max_weight_edges_leave_targets_unreachable_on_every_engine() {
    let prov = EdgeProvenance {
        phase: 0,
        kind: EdgeKind::Interconnection,
        charged_to: 0,
    };
    let mut h = Emulator::new(3);
    h.add_edge(0, 1, u64::MAX, prov);
    h.add_edge(1, 2, 1, prov);
    let out = BuildOutput {
        emulator: h,
        certified: None,
        size_bound: None,
        trace: None,
        congest: None,
        stats: Default::default(),
        algorithm: "max-weight",
    };
    let dir = scratch("max-weight");
    let path = dir.join("max-weight.usnae");
    let g = usnae::graph::generators::path(3).expect("path graph");
    let key = CacheKey::new(&g, out.algorithm, &BuildConfig::default());
    std::fs::write(&path, Snapshot::from_output(key, &out).encode()).expect("write snapshot");
    let backend = MappedBackend::open(&path).expect("open snapshot");

    let pairs = [(0, 1), (0, 2), (1, 2)];
    let expected = [None, None, Some(1)];
    for kind in ["heap", "mapped"] {
        let open = || match kind {
            "heap" => QueryEngine::from_output(&out),
            _ => QueryEngine::open(&backend).expect("open engine"),
        };
        let single: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| open().distance(u, v).value)
            .collect();
        assert_eq!(single, expected, "{kind}: single queries");
        let batched: Vec<_> = open().distances(&pairs).iter().map(|a| a.value).collect();
        assert_eq!(batched, expected, "{kind}: batched queries");
    }
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
}
