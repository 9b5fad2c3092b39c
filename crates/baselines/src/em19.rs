//! EM19-style spanner baseline (Elkin–Matar PODC'19).
//!
//! The paper's §4 spanner pipeline — popularity detection, ruling
//! forests, shortest-path interconnection — is the SAI loop
//! [`usnae_core::sai::run_phases`] with paths of `G`
//! ([`EdgeForm::Path`](usnae_core::sai::EdgeForm)), here run on the §3 degree schedule
//! ([`DistributedParams::phase_numbers`](usnae_core::params::DistributedParams::phase_numbers):
//! `deg_i = n^(2^i/κ)` then `n^ρ`)
//! instead of §4's EN17a sequence. Without the geometric decay that
//! sequence buys, interconnection paths of length up to `δ_i` pile up and
//! the size is `O(β·n^(1+1/κ))` — the factor Corollary 4.4 removes.
//! Experiment E7 measures the gap. The same schedule with weighted edges
//! is the fast centralized emulator, so every emulator edge `(u, v, w)` of
//! that build is a `w`-hop path of this spanner.

#[cfg(test)]
mod tests {
    use usnae_core::api::{Algorithm, Emulator};
    use usnae_core::engine::Engine;
    use usnae_core::params::DistributedParams;
    use usnae_core::sai::{run_phases, EdgeForm};
    use usnae_core::verify::is_subgraph_spanner;
    use usnae_graph::{generators, Graph};

    /// The in-process build at `threads`.
    fn build_em19(g: &Graph, params: &DistributedParams, threads: usize) -> Emulator {
        let phases = params.phase_numbers(g.num_vertices());
        run_phases(g, &phases, EdgeForm::Path, &Engine::inproc(g, threads)).0
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
