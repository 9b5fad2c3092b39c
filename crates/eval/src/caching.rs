//! Opt-in construction caching for experiment sweeps.
//!
//! The experiment matrices (E7/E8, and the `exp_*` binaries over them)
//! rebuild the same `(graph, algorithm, config)` cells whenever a sweep is
//! re-run with one knob changed. Setting `USNAE_CACHE_DIR` points every
//! sweep build at one fingerprint-keyed construction cache
//! ([`usnae_core::cache`]): the first run pays the builds, every later run
//! reuses the warm, verified entries. Unset, behavior is byte-identical to
//! an uncached sweep — the cache is a pure read-through.

use std::path::{Path, PathBuf};
use usnae_core::api::{BuildConfig, BuildError, BuildOutput, Construction};
use usnae_core::cache::build_cached;
use usnae_graph::Graph;

/// Name of the environment variable the sweeps consult.
pub const CACHE_ENV: &str = "USNAE_CACHE_DIR";

/// The sweep-level cache directory, when `USNAE_CACHE_DIR` is set and
/// non-empty.
pub fn env_cache() -> Option<PathBuf> {
    match std::env::var(CACHE_ENV) {
        Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

/// Builds through the sweep cache when one is configured, directly
/// otherwise. Every registry iteration in [`crate::experiments`] goes
/// through here, so a whole experiment matrix warms (and reuses) one
/// cache directory.
///
/// An *unusable cache* (e.g. `USNAE_CACHE_DIR` pointing at an unwritable
/// path) must not poison an experiment table: the sweeps treat a build
/// `Err` as "parameters out of range for this lineage" and skip the row,
/// so a cache-store failure is downgraded here to a warning plus an
/// uncached rebuild instead of being surfaced as that kind of `Err`.
///
/// # Errors
///
/// Whatever the underlying build reports (never `BuildError::Cache`).
pub fn sweep_build(
    construction: &dyn Construction,
    g: &Graph,
    cfg: &BuildConfig,
) -> Result<BuildOutput, BuildError> {
    build_with(construction, g, cfg, env_cache().as_deref())
}

/// [`sweep_build`] with the cache decision made explicit (testable without
/// touching the process environment).
///
/// # Errors
///
/// Whatever the underlying build reports (never `BuildError::Cache`).
pub fn build_with(
    construction: &dyn Construction,
    g: &Graph,
    cfg: &BuildConfig,
    cache: Option<&Path>,
) -> Result<BuildOutput, BuildError> {
    match cache {
        Some(dir) => match build_cached(construction, g, cfg, dir) {
            Err(BuildError::Cache(e)) => {
                eprintln!(
                    "warning: construction cache at {} unusable ({e}); sweep continues uncached",
                    dir.display()
                );
                construction.build(g, cfg)
            }
            other => other,
        },
        None => construction.build(g, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_core::api::{Algorithm, CacheStatus};
    use usnae_graph::generators;

    #[test]
    fn sweep_build_matches_direct_build_uncached() {
        // The suite must not depend on the ambient environment; this test
        // exercises the uncached path explicitly via a no-op cache
        // check (env handling is covered by the CLI/CI legs).
        let g = generators::grid2d(6, 6).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let direct = c.build(&g, &cfg).unwrap();
        let swept = sweep_build(c.as_ref(), &g, &cfg).unwrap();
        assert_eq!(
            direct.emulator.provenance(),
            swept.emulator.provenance(),
            "read-through changes nothing"
        );
    }

    #[test]
    fn unusable_cache_degrades_to_an_uncached_build() {
        // Point the cache "directory" at a regular file: every store must
        // fail, and the sweep must still produce the correct output.
        let file =
            std::env::temp_dir().join(format!("usnae-eval-cache-blocked-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let g = generators::grid2d(5, 5).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let blocked = file.join("sub");
        let out = build_with(c.as_ref(), &g, &cfg, Some(&blocked))
            .expect("cache failure must not fail the sweep");
        let direct = c.build(&g, &cfg).unwrap();
        assert_eq!(out.emulator.provenance(), direct.emulator.provenance());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn explicit_cache_config_round_trips_a_sweep_cell() {
        let dir = std::env::temp_dir().join(format!("usnae-eval-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = generators::gnp_connected(60, 0.1, 5).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let cold = build_cached(c.as_ref(), &g, &cfg, &dir).unwrap();
        let warm = build_cached(c.as_ref(), &g, &cfg, &dir).unwrap();
        assert_eq!(cold.stats.cache, CacheStatus::Miss);
        assert_eq!(warm.stats.cache, CacheStatus::Hit);
        assert_eq!(warm.stream_fingerprint(), cold.stream_fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
