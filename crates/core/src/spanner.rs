//! Near-additive **spanners** — the §4 construction.
//!
//! Same SAI skeleton as §3, with two changes:
//!
//! * instead of a weighted emulator edge `(u, v, d)`, the construction adds
//!   the *whole shortest `u–v` path of `G`* to the output, so the result is
//!   a subgraph of `G`;
//! * the degree sequence is EN17a's (`γ = max(2, log log κ)` exponential
//!   stage, an `n^(ρ/2)` transition phase, then `n^ρ`), chosen so the
//!   per-phase interconnection contributions `|P_i|·deg_i·δ_i` decay
//!   geometrically and the total is `O(n^(1+1/κ))` (eq. 39) — the paper's
//!   improvement over EM19's `O(β·n^(1+1/κ))`.
//!
//! Superclustering becomes *simpler* than for emulators: the BFS ruling
//! forest `F_i` is itself a subgraph, so its edges go straight into the
//! spanner (≤ `n` per phase, eq. 31) and no hub-vertex splitting is needed —
//! one supercluster per tree.
//!
//! So the construction is the SAI loop [`crate::sai::run_phases`] run on
//! [`SpannerParams::phase_numbers`](crate::params::SpannerParams::phase_numbers)
//! with paths of `G` ([`EdgeForm::Path`](crate::sai::EdgeForm)): a forest
//! path for each superclustered center, and for each unclustered center a
//! shortest path to every neighboring center, recovered by exploring that
//! center again with BFS-tree parents. The EM19 baseline runs the same
//! loop on the §3 schedule. [`Spanner`](crate::api::constructions::Spanner) is the construction;
//! the result is a `(1+ε, β)`-spanner with `O(n^(1+1/κ))` edges
//! (Corollary 4.4), and [`crate::verify::is_subgraph_spanner`] certifies
//! that every edge has weight 1 and exists in `G`.

#[cfg(test)]
mod tests {
    use crate::emulator::Emulator;
    use crate::engine::Engine;
    use crate::params::SpannerParams;
    use crate::sai::{run_phases, EdgeForm, SaiTrace};
    use crate::verify::{audit_stretch, is_subgraph_spanner};
    use usnae_graph::distance::sample_pairs;
    use usnae_graph::generators;
    use usnae_graph::Graph;

    /// The sequential in-process build, timings dropped.
    fn build_spanner_impl(g: &Graph, params: &SpannerParams) -> (Emulator, SaiTrace) {
        let phases = params.phase_numbers(g.num_vertices());
        let (spanner, trace, _) = run_phases(g, &phases, EdgeForm::Path, &Engine::inproc(g, 1));
        (spanner, trace)
    }

    fn params(eps: f64, kappa: u32, rho: f64) -> SpannerParams {
        SpannerParams::new(eps, kappa, rho).unwrap()
    }

    #[test]
    fn spanner_is_subgraph_across_families() {
        let graphs: Vec<usnae_graph::Graph> = vec![
            generators::gnp_connected(250, 0.06, 1).unwrap(),
            generators::grid2d(15, 15).unwrap(),
            generators::barabasi_albert(250, 4, 2).unwrap(),
            generators::caveman(25, 10).unwrap(),
        ];
        for g in &graphs {
            let p = params(0.5, 4, 0.5);
            let s = build_spanner_impl(g, &p).0;
            assert!(is_subgraph_spanner(g, s.graph()));
            assert!(s.num_edges() <= g.num_edges());
        }
    }

    #[test]
    fn stretch_certified_on_samples() {
        let g = generators::gnp_connected(250, 0.04, 7).unwrap();
        let p = params(0.5, 4, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let s = build_spanner_impl(&g, &p).0;
        let pairs = sample_pairs(&g, 400, 5);
        let report = audit_stretch(&g, s.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn stretch_certified_on_grid() {
        let g = generators::grid2d(16, 12).unwrap();
        let p = params(0.9, 3, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let s = build_spanner_impl(&g, &p).0;
        let pairs = sample_pairs(&g, 300, 9);
        let report = audit_stretch(&g, s.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn dense_graph_is_sparsified() {
        // On a dense G(n, p) the spanner must drop most edges.
        let g = generators::gnp_connected(300, 0.2, 11).unwrap();
        let p = params(0.5, 8, 0.5);
        let s = build_spanner_impl(&g, &p).0;
        assert!(
            (s.num_edges() as f64) < 0.5 * g.num_edges() as f64,
            "{} of {}",
            s.num_edges(),
            g.num_edges()
        );
    }

    #[test]
    fn forest_edges_bounded_by_n_per_phase() {
        // eq. 31: superclustering contributes ≤ n edges per phase.
        let g = generators::gnp_connected(400, 0.08, 13).unwrap();
        let p = params(0.5, 4, 0.5);
        let (_, trace) = build_spanner_impl(&g, &p);
        for t in &trace.phases {
            assert!(
                t.superclustering_edges <= 400,
                "phase {}: {}",
                t.phase,
                t.superclustering_edges
            );
        }
    }

    #[test]
    fn path_graph_spanner_is_path() {
        let g = generators::path(15).unwrap();
        let p = params(0.5, 2, 0.5);
        let s = build_spanner_impl(&g, &p).0;
        assert_eq!(s.num_edges(), 14); // the path itself
    }

    #[test]
    fn sparser_than_trivial_bound() {
        // Size stays within a small multiple of n^(1+1/κ) (the O(·) of
        // eq. 39 hides a modest constant).
        let g = generators::gnp_connected(400, 0.1, 17).unwrap();
        let p = params(0.5, 4, 0.5);
        let s = build_spanner_impl(&g, &p).0;
        assert!(
            (s.num_edges() as f64) <= 4.0 * p.size_bound(400),
            "{} vs bound {}",
            s.num_edges(),
            p.size_bound(400)
        );
    }

    #[test]
    fn trace_partition_laminarity() {
        let g = generators::gnp_connected(300, 0.07, 19).unwrap();
        let p = params(0.5, 4, 0.5);
        let (_, trace) = build_spanner_impl(&g, &p);
        // Each P_{i+1} cluster is a union of P_i clusters (Lemma 2.9).
        for i in 0..trace.partitions.len() - 1 {
            let prev = trace.partitions[i].vertex_to_cluster(300);
            for sc in trace.partitions[i + 1].clusters() {
                let mut prev_ids: Vec<usize> = sc
                    .members
                    .iter()
                    .map(|&v| prev[v].expect("member clustered"))
                    .collect();
                prev_ids.sort_unstable();
                prev_ids.dedup();
                // Every vertex of each absorbed P_i cluster is in sc.
                for id in prev_ids {
                    for &v in &trace.partitions[i].cluster(id).members {
                        assert!(sc.members.contains(&v));
                    }
                }
            }
        }
    }
}
