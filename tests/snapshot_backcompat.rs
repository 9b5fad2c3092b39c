//! Snapshot codec back-compat: files of older codec versions are refused
//! with a typed error, and the cache treats them as a miss and rebuilds.
//!
//! The codec reads and writes version 4 only. A cache directory can be
//! rebuilt by design, so an entry left by an older release is not served
//! and not a failure: it decodes to `UnsupportedVersion`, the read-through
//! build reports a miss, rebuilds the exact golden stream, and replaces
//! the entry with a v4 file that the next run hits. The genuine v2 and v3
//! files committed in `tests/data/` pin that behaviour to real old bytes.

mod common;

use common::{fixture_graphs, golden_config, golden_path, stream_text};
use std::path::PathBuf;
use usnae::api::{BuildConfig, CacheStatus, PartitionPolicy, TransportKind};
use usnae::core::cache::{
    build_cached, CacheKey, ConstructionCache, EvictingCache, Snapshot, SnapshotError, VERSION,
};
use usnae::registry;

fn fixture_path(tag: &str, algo: &str, version: u32) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{tag}.{algo}.v{version}.usnae-snap"))
}

/// The committed old-version files: one single-stream v2 file and one v3
/// file from a channel worker-pool build, each with the config it was
/// written under (which fixes its cache key).
fn fixture_cases() -> Vec<(&'static str, &'static str, u32, BuildConfig)> {
    vec![
        ("grid8x8", "centralized", 2, golden_config()),
        (
            "ring48",
            "centralized",
            3,
            BuildConfig {
                shards: 2,
                partition: PartitionPolicy::DegreeBalanced,
                transport: TransportKind::Channel,
                ..golden_config()
            },
        ),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usnae-backcompat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn golden_v2_and_v3_snapshots_are_refused_and_rebuilt_as_cache_misses() {
    for (tag, algo, version, cfg) in fixture_cases() {
        let what = format!("{tag}.{algo}.v{version}");
        let path = fixture_path(tag, algo, version);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            version,
            "{what}: fixture does not carry the version it claims"
        );

        // The codec refuses the old layout with a typed error.
        match Snapshot::decode(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version, "{what}");
                assert_eq!(supported, 4, "{what}");
            }
            other => panic!("{what}: expected UnsupportedVersion, got {other:?}"),
        }

        let (_, g) = fixture_graphs()
            .into_iter()
            .find(|(t, _)| *t == tag)
            .expect("fixture graph");
        let c = registry::find(algo).expect("registry algorithm");
        let key = CacheKey::new(&g, algo, &cfg);

        // Placed as the cache entry for its key, the old file is a miss:
        // the build reruns, reproduces the golden stream, and leaves a v4
        // entry in its place.
        let dir = scratch(&format!("{tag}-build"));
        let entry = ConstructionCache::new(&dir).entry_path(&key);
        std::fs::write(&entry, &bytes).unwrap();
        let cold = build_cached(c.as_ref(), &g, &cfg, &dir).expect("rebuild");
        assert_eq!(cold.stats.cache, CacheStatus::Miss, "{what}");
        let golden = std::fs::read_to_string(golden_path(tag, algo)).expect("golden stream");
        assert_eq!(
            stream_text(tag, algo, &cold),
            golden,
            "{what}: rebuild drifted from the golden stream"
        );
        let stored = std::fs::read(&entry).expect("rebuilt entry");
        assert_eq!(
            u32::from_le_bytes(stored[8..12].try_into().unwrap()),
            VERSION,
            "{what}: the rebuild must replace the entry with the current codec"
        );
        let warm = build_cached(c.as_ref(), &g, &cfg, &dir).expect("warm build");
        assert_eq!(warm.stats.cache, CacheStatus::Hit, "{what}");
        assert_eq!(
            warm.stream_fingerprint(),
            cold.stream_fingerprint(),
            "{what}"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // The serving cache cannot map the old file either: a counted miss.
        let dir = scratch(&format!("{tag}-mapped"));
        let cache = EvictingCache::open(&dir, None).expect("open cache");
        std::fs::write(cache.entry_path(&key), &bytes).unwrap();
        assert!(
            cache
                .open_mapped(&key)
                .expect("a miss, not an error")
                .is_none(),
            "{what}: an old-version entry must not be served"
        );
        let usage = cache.usage();
        assert_eq!((usage.hits, usage.misses), (0, 1), "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
