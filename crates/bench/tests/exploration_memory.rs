//! Resource bound of the exploration kernel: no construction keeps `O(n)`
//! state per exploration source.
//!
//! The §4 spanner and the EM19 baseline explore from every cluster center
//! and keep the explorations alive through a phase for path recovery; in
//! phase 0 every vertex is a center. Dense per-source distance and parent
//! arrays would hold 32 B × n² ≈ 512 MB at n = 4000, while the sparse
//! settled lists of `usnae_graph::par` hold `O(Σ|ball|)`.
//!
//! The peak-RSS probe (`VmHWM`) is process-global, so this binary holds
//! exactly one test: nothing else may allocate in the process while it
//! measures.

#![cfg(target_os = "linux")]

use usnae_bench::rss;
use usnae_core::api::BuildConfig;
use usnae_graph::generators;

/// Large enough that `n²` per-phase state would dwarf the bound.
const N: usize = 4000;

/// Allowed growth of the peak resident set over both builds.
const BOUND_BYTES: u64 = 64 << 20;

#[test]
fn spanner_and_em19_builds_stay_within_the_sparse_memory_bound() {
    let g = generators::cycle(N).expect("valid cycle");
    let cfg = BuildConfig::default();
    let before = rss::peak_rss_bytes().expect("procfs exposes VmHWM");
    for name in ["spanner", "em19"] {
        let construction = usnae_baselines::registry::find(name).expect("registered");
        let out = construction.build(&g, &cfg).expect("valid default config");
        assert!(out.emulator.num_edges() >= N - 1, "{name}: spans the cycle");
    }
    let grown = rss::peak_rss_bytes()
        .expect("procfs exposes VmHWM")
        .saturating_sub(before);
    assert!(
        grown < BOUND_BYTES,
        "peak RSS grew by {} MiB over the builds (bound {} MiB)",
        grown >> 20,
        BOUND_BYTES >> 20
    );
}
