//! Registry-wide construction-cache suite: every algorithm's output
//! survives a snapshot round trip **exactly**, and a warm cache hit is
//! provably identical to a cold rebuild.
//!
//! This extends the determinism parity suite (`parallel_determinism.rs`)
//! across the process/disk boundary: PR 3 made every construction a pure
//! function of `(graph, config)` with a cross-process stream fingerprint;
//! here that contract is what makes `save → load` a safe substitute for
//! `rebuild`, and the suite enforces it with no per-algorithm exceptions:
//!
//! * **Round trip.** `Snapshot::from_output` → `encode` → `decode` →
//!   `rebuild_emulator` reproduces the exact insertion stream (edges,
//!   weights, per-edge provenance — the trace of every insertion), the
//!   certified `(α, β)`, the size bound, the CONGEST metrics, and the
//!   producing build's stats counters, for all 9 registry algorithms.
//! * **Warm parity.** `build_cached` twice: the second call reports a
//!   `Hit`, skips all phase work (empty `stats.phases`), and its output is
//!   fingerprint- and stream-identical to the cold build.
//! * **Rejection.** Corrupted, truncated, and version-bumped snapshot
//!   files fail with a *typed* `SnapshotError` — never a panic, and never
//!   a silently-wrong hit.

use usnae::api::{BuildConfig, CacheStatus};
use usnae::core::cache::{
    build_cached, CacheKey, ConstructionCache, Snapshot, SnapshotError, VERSION,
};
use usnae::graph::{generators, Graph};
use usnae::registry;

fn input(seed: u64, congest: bool) -> Graph {
    let n = if congest { 70 } else { 130 };
    generators::gnp_connected(n, 8.0 / n as f64, seed).expect("valid gnp parameters")
}

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usnae-cache-suite-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_registry_algorithm_round_trips_through_the_snapshot_codec() {
    for c in registry::all() {
        let g = input(17, c.supports().congest);
        let cfg = BuildConfig {
            seed: 17,
            ..BuildConfig::default()
        };
        let out = c
            .build(&g, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", c.name()));
        let key = CacheKey::new(&g, c.name(), &cfg);
        let snap = Snapshot::from_output(key.clone(), &out);
        let decoded = Snapshot::decode(&snap.encode())
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", c.name()));
        let ctx = c.name();

        // Exact edge stream with provenance — the insertion trace.
        assert_eq!(decoded.records, out.emulator.provenance(), "{ctx}: stream");
        let rebuilt = decoded.rebuild_emulator();
        assert_eq!(
            rebuilt.provenance(),
            out.emulator.provenance(),
            "{ctx}: rebuilt emulator stream"
        );
        assert_eq!(rebuilt.num_edges(), out.num_edges(), "{ctx}: edge count");
        // Structure-level identity, independent of insertion order: the
        // rebuilt weighted graph is the same (u, v, w) set.
        assert_eq!(
            usnae::graph::metrics::weighted_fingerprint(rebuilt.graph()),
            usnae::graph::metrics::weighted_fingerprint(out.emulator.graph()),
            "{ctx}: weighted structure fingerprint"
        );

        // Certification, bounds, CONGEST stats.
        assert_eq!(decoded.certified, out.certified, "{ctx}: certified");
        assert_eq!(decoded.size_bound, out.size_bound, "{ctx}: size bound");
        assert_eq!(decoded.congest, out.congest, "{ctx}: congest stats");

        // Stats equality: the stored stats are the producing build's,
        // modulo the cache marker the snapshot stamps on them.
        assert_eq!(decoded.stats.threads, out.stats.threads, "{ctx}");
        assert_eq!(decoded.stats.total, out.stats.total, "{ctx}");
        assert_eq!(
            decoded.stats.phases, out.stats.phases,
            "{ctx}: phase timings"
        );

        // And the identity: stored fingerprint == live fingerprint.
        assert_eq!(
            decoded.stream_fingerprint,
            out.stream_fingerprint(),
            "{ctx}: fingerprint"
        );
        assert_eq!(decoded.key, key, "{ctx}: key");
    }
}

#[test]
fn warm_hit_is_fingerprint_identical_to_cold_build_for_every_algorithm() {
    let dir = temp_cache("warm-parity");
    for c in registry::all() {
        let g = input(23, c.supports().congest);
        let cfg = BuildConfig {
            seed: 23,
            ..BuildConfig::default()
        };
        let cold = build_cached(c.as_ref(), &g, &cfg, &dir)
            .unwrap_or_else(|e| panic!("{} cold: {e}", c.name()));
        assert_eq!(cold.stats.cache, CacheStatus::Miss, "{}", c.name());

        let warm = build_cached(c.as_ref(), &g, &cfg, &dir)
            .unwrap_or_else(|e| panic!("{} warm: {e}", c.name()));
        let ctx = c.name();
        assert_eq!(warm.stats.cache, CacheStatus::Hit, "{ctx}");
        assert!(
            warm.stats.phases.is_empty(),
            "{ctx}: warm hit must skip phase work (got {} phases)",
            warm.stats.phases.len()
        );
        assert_eq!(
            warm.stream_fingerprint(),
            cold.stream_fingerprint(),
            "{ctx}: fingerprint parity"
        );
        assert_eq!(
            warm.emulator.provenance(),
            cold.emulator.provenance(),
            "{ctx}: exact stream parity"
        );
        assert_eq!(warm.certified, cold.certified, "{ctx}");
        assert_eq!(warm.size_bound, cold.size_bound, "{ctx}");
        assert_eq!(warm.congest, cold.congest, "{ctx}: congest stats survive");
        assert_eq!(warm.algorithm, cold.algorithm, "{ctx}");
    }
    // One entry per algorithm, all healthy.
    let cache = ConstructionCache::new(&dir);
    assert_eq!(cache.ls().unwrap().len(), registry::all().len());
    assert!(cache.verify().unwrap().is_empty(), "all entries verify");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_snapshots_are_rejected_with_typed_errors_for_every_algorithm() {
    for c in registry::all() {
        let g = input(5, c.supports().congest);
        let cfg = BuildConfig {
            seed: 5,
            ..BuildConfig::default()
        };
        let out = c.build(&g, &cfg).unwrap();
        let key = CacheKey::new(&g, c.name(), &cfg);
        let good = Snapshot::from_output(key, &out).encode();
        let ctx = c.name();

        // Truncation at every interesting boundary.
        for cut in [0, 4, 11, good.len() / 3, good.len() - 1] {
            let err = Snapshot::decode(&good[..cut]).expect_err(&format!("{ctx}: cut at {cut}"));
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
                ),
                "{ctx}: cut at {cut} gave {err:?}"
            );
        }

        // Version mismatch is its own, actionable error.
        let mut versioned = good.clone();
        versioned[8] = VERSION as u8 + 1;
        match Snapshot::decode(&versioned) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(supported, VERSION, "{ctx}");
                assert_ne!(found, VERSION, "{ctx}");
            }
            other => panic!("{ctx}: version bump gave {other:?}"),
        }

        // Bit rot anywhere in the payload is caught by the checksum.
        for pos in [12, good.len() / 2, good.len() - 9] {
            let mut rotten = good.clone();
            rotten[pos] ^= 0x20;
            let err = Snapshot::decode(&rotten).expect_err(&format!("{ctx}: rot at {pos}"));
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::UnsupportedVersion { .. }
                ),
                "{ctx}: rot at {pos} gave {err:?}"
            );
        }

        // Not-a-snapshot bytes.
        assert!(matches!(
            Snapshot::decode(b"definitely not a snapshot file"),
            Err(SnapshotError::BadMagic)
        ));
    }
}

#[test]
fn seeded_corruption_sweep_never_panics_and_never_serves_a_wrong_hit() {
    // Satellite of the partition PR: a seeded bit-flip + truncation sweep
    // over **every snapshot section**. The builds are chosen to populate
    // them all: `distributed` carries CONGEST stats + certification +
    // per-phase timings, a partitioned `centralized` build carries the v2
    // per-shard section, and `tz06` leaves the optional sections empty
    // (exercising the None tags). Every corruption must decode to a
    // *typed* `SnapshotError` — never a panic, and never a silently wrong
    // snapshot.
    use usnae::graph::rng::Rng;

    let mut cases: Vec<(String, Snapshot)> = Vec::new();
    for (name, cfg) in [
        ("distributed", BuildConfig::default()),
        (
            "centralized",
            BuildConfig {
                shards: 4,
                partition: usnae::api::PartitionPolicy::DegreeBalanced,
                ..BuildConfig::default()
            },
        ),
        ("tz06", BuildConfig::default()),
    ] {
        let c = registry::find(name).unwrap();
        let g = input(7, c.supports().congest);
        let out = c.build(&g, &cfg).unwrap();
        let key = CacheKey::new(&g, name, &cfg);
        cases.push((name.to_string(), Snapshot::from_output(key, &out)));
    }
    // The partitioned case must actually populate the shard section.
    assert!(!cases[1].1.stats.shards.is_empty(), "shard section empty");
    assert!(cases[0].1.congest.is_some(), "congest section empty");

    for (name, snap) in &cases {
        let good = snap.encode();
        assert_eq!(&Snapshot::decode(&good).unwrap(), snap, "{name}: clean");

        let mut rng = Rng::seed_from_u64(0xC0FFEE ^ good.len() as u64);
        // Bit flips: seeded positions across the whole file (header, key,
        // records, optional sections, stats, shard section, checksum).
        for i in 0..500 {
            let pos = rng.gen_index(good.len());
            let bit = 1u8 << rng.gen_index(8);
            let mut bad = good.clone();
            bad[pos] ^= bit;
            match Snapshot::decode(&bad) {
                Err(_) => {} // typed error — the only acceptable outcome
                Ok(decoded) => assert_eq!(
                    &decoded, snap,
                    "{name}: flip #{i} at byte {pos} decoded to a DIFFERENT snapshot \
                     — a silent wrong hit"
                ),
            }
        }
        // Truncations: every 7th prefix plus all short prefixes, so each
        // section boundary is crossed.
        for cut in (0..good.len().min(64)).chain((0..good.len()).step_by(7)) {
            let err = Snapshot::decode(&good[..cut])
                .expect_err(&format!("{name}: truncation at {cut} must fail"));
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::UnsupportedVersion { .. }
                        | SnapshotError::Corrupt { .. }
                ),
                "{name}: truncation at {cut} gave {err:?}"
            );
        }
        // Seeded byte-range zeroing: wipes whole fields, not just bits.
        for _ in 0..100 {
            let start = rng.gen_index(good.len());
            let len = 1 + rng.gen_index(16).min(good.len() - start - 1);
            let mut bad = good.clone();
            for b in &mut bad[start..start + len] {
                *b = 0;
            }
            if let Ok(decoded) = Snapshot::decode(&bad) {
                assert_eq!(&decoded, snap, "{name}: zeroing [{start}, {start}+{len})");
            }
        }
    }
}

#[test]
fn every_section_directory_byte_is_corruption_covered() {
    // Exhaustive (not sampled) corruption of the v4 header + section
    // directory: every byte of `MAGIC | version | count | (id, offset,
    // len) × 5` is flipped with every single-bit pattern. A directory
    // entry steering a reader out of bounds, into another section, or
    // over the checksum must surface as a typed error — or, where the
    // flip is provably immaterial, decode to the identical snapshot.
    let c = registry::find("centralized").unwrap();
    let g = input(11, false);
    let cfg = BuildConfig::default();
    let out = c.build(&g, &cfg).unwrap();
    let snap = Snapshot::from_output(CacheKey::new(&g, "centralized", &cfg), &out);
    let good = snap.encode();
    assert_eq!(
        u32::from_le_bytes(good[8..12].try_into().unwrap()),
        VERSION,
        "sweep must run on the directory-bearing v4 layout"
    );
    // 8 magic + 4 version + 4 count + 5 × 24 directory bytes.
    let directory_end = 16 + 5 * 24;
    for pos in 0..directory_end {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[pos] ^= 1u8 << bit;
            match Snapshot::decode(&bad) {
                Err(_) => {} // typed rejection — the expected outcome
                Ok(decoded) => assert_eq!(
                    decoded, snap,
                    "directory byte {pos} bit {bit}: corrupt directory decoded \
                     to a DIFFERENT snapshot — a silent wrong hit"
                ),
            }
        }
    }
}

#[test]
fn stale_entry_for_a_different_key_is_not_served() {
    // A snapshot renamed onto another key's file name must be refused:
    // the decoded key disagrees with the requested one.
    let dir = temp_cache("stale-key");
    let cache = ConstructionCache::new(&dir);
    let c = registry::find("centralized").unwrap();
    let g = input(3, false);
    let cfg_a = BuildConfig::default();
    let cfg_b = BuildConfig {
        kappa: 8,
        ..BuildConfig::default()
    };
    let out = c.build(&g, &cfg_a).unwrap();
    let key_a = CacheKey::new(&g, c.name(), &cfg_a);
    let key_b = CacheKey::new(&g, c.name(), &cfg_b);
    cache
        .store(&Snapshot::from_output(key_a.clone(), &out))
        .unwrap();
    // Misfile A's entry under B's name.
    std::fs::rename(cache.entry_path(&key_a), cache.entry_path(&key_b)).unwrap();
    match cache.load(&key_b) {
        Err(SnapshotError::KeyMismatch { .. }) => {}
        other => panic!("stale entry served: {other:?}"),
    }
    // And build_cached degrades to an honest rebuild.
    let rebuilt = build_cached(c.as_ref(), &g, &cfg_b, &dir).unwrap();
    assert_eq!(rebuilt.stats.cache, CacheStatus::Miss);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_verify_finds_exactly_the_damaged_entries() {
    let dir = temp_cache("verify-sweep");
    let cache = ConstructionCache::new(&dir);
    // Warm three entries.
    let names = ["centralized", "spanner", "ep01"];
    let g = input(29, false);
    let cfg = BuildConfig::default();
    for name in names {
        let c = registry::find(name).unwrap();
        build_cached(c.as_ref(), &g, &cfg, &dir).unwrap();
    }
    assert!(cache.verify().unwrap().is_empty());
    // Damage exactly one.
    let victim = cache.entry_path(&CacheKey::new(&g, "spanner", &cfg));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&victim, &bytes).unwrap();
    let broken = cache.verify().unwrap();
    assert_eq!(broken.len(), 1);
    assert_eq!(broken[0].path, victim);
    let _ = std::fs::remove_dir_all(&dir);
}
