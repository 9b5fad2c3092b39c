//! EM19-style spanner baseline (Elkin–Matar PODC'19).
//!
//! The paper's §4 spanner pipeline — popularity detection, ruling
//! forests, shortest-path interconnection — run through
//! [`usnae_core::spanner::run_phases`] itself, but with the §3 degree
//! schedule (`deg_i = n^(2^i/κ)` then `n^ρ`) instead of §4's EN17a
//! sequence. Without the geometric decay that sequence buys,
//! interconnection paths of length up to `δ_i` pile up and the size is
//! `O(β·n^(1+1/κ))` — the factor Corollary 4.4 removes. Experiment E7
//! measures the gap.

use usnae_core::api::PhaseTiming;
use usnae_core::emulator::Emulator;
use usnae_core::engine::Engine;
use usnae_core::params::DistributedParams;
use usnae_core::spanner::{run_phases, PhaseNumbers};
use usnae_graph::Graph;

/// Crate-internal entry point behind the registry adapter: builds an
/// EM19-style spanner, a subgraph of `G` with `O(β·n^(1+1/κ))` edges, on
/// the §4 spanner's phase loop fed with [`DistributedParams`]' per-phase
/// numbers. The Task-1 explorations and ruling-set carving run through
/// `engine` (shared array, partitioned shards, or a worker pool) —
/// byte-identical either way. Returns the spanner and its per-phase
/// timings.
pub(crate) fn build_em19_exec(
    g: &Graph,
    params: &DistributedParams,
    engine: &Engine<'_>,
) -> (Emulator, Vec<PhaseTiming>) {
    let n = g.num_vertices();
    let phases: Vec<PhaseNumbers> = (0..=params.ell())
        .map(|i| PhaseNumbers {
            delta: params.delta(i),
            degree_threshold: params.degree_threshold(i, n),
            forest_depth: params.forest_depth(i),
        })
        .collect();
    let (spanner, _, timings) = run_phases(g, &phases, engine);
    (spanner, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_core::api::{Algorithm, Emulator};
    use usnae_core::verify::is_subgraph_spanner;
    use usnae_graph::generators;

    /// The in-process build at `threads`.
    fn build_em19(g: &Graph, params: &DistributedParams, threads: usize) -> Emulator {
        build_em19_exec(g, params, &Engine::inproc(g, threads)).0
    }

    #[test]
    fn is_a_subgraph() {
        let g = generators::gnp_connected(150, 0.08, 1).unwrap();
        let p = DistributedParams::new(0.5, 4, 0.5).unwrap();
        let s = build_em19(&g, &p, 1);
        assert!(is_subgraph_spanner(&g, s.graph()));
    }

    #[test]
    fn never_disconnects_what_g_connects() {
        let g = generators::gnp_connected(80, 0.08, 2).unwrap();
        let p = DistributedParams::new(0.5, 4, 0.5).unwrap();
        let s = build_em19(&g, &p, 1);
        let d = s.distances_from(0);
        assert!(d.iter().all(|x| x.is_some()));
    }

    #[test]
    fn paper_spanner_is_at_most_as_large_on_dense_graphs() {
        // E7's direction: §4 (EN17a sequence) ≤ EM19 (§3 sequence) sizes,
        // up to small-instance noise, on dense inputs.
        let g = generators::gnp_connected(300, 0.15, 3).unwrap();
        let em19 = build_em19(&g, &DistributedParams::new(0.5, 8, 0.5).unwrap(), 1);
        let ours = Emulator::builder(&g)
            .algorithm(Algorithm::Spanner)
            .kappa(8)
            .build()
            .unwrap()
            .emulator;
        assert!(
            ours.num_edges() <= em19.num_edges() + 300,
            "ours {} vs em19 {}",
            ours.num_edges(),
            em19.num_edges()
        );
    }

    #[test]
    fn path_input_reproduced() {
        let g = generators::path(20).unwrap();
        let p = DistributedParams::new(0.5, 2, 0.5).unwrap();
        let s = build_em19(&g, &p, 1);
        assert_eq!(s.num_edges(), 19);
    }
}
