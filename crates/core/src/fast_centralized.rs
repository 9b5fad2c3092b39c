//! Fast centralized construction (§3.3): a centralized simulation of the
//! distributed algorithm.
//!
//! Instead of Algorithm 1's sequential center processing, each phase runs
//! the distributed pipeline's *logic* centrally:
//!
//! 1. detect popular clusters (≥ `deg_i` neighboring centers within `δ_i`);
//! 2. compute a ruling set for the popular centers — greedy min-id ball
//!    carving with separation `≥ 2δ_i + 1` and domination `≤ 2δ_i ≤ rul_i`
//!    (substitution S1: strictly better domination than the cited
//!    `(2/ρ)·δ_i`, so all downstream bounds hold);
//! 3. grow a BFS ruling forest to depth `rul_i + δ_i`; every tree becomes
//!    one supercluster (no hub splitting is needed centrally — §3.3);
//! 4. interconnect unclustered centers with *all* neighboring centers
//!    (§3.1.3).
//!
//! That is the SAI loop [`crate::sai::run_phases`], run on
//! [`DistributedParams::phase_numbers`](crate::params::DistributedParams::phase_numbers)
//! with weighted emulator edges ([`EdgeForm::Weighted`](crate::sai::EdgeForm)):
//! superclustering adds `(root, rc, d_G(root, rc))` and interconnection
//! `(rc, v, d_G(rc, v))`. The §4 spanner runs the same loop with paths of
//! `G` instead. [`FastCentralized`](crate::api::constructions::FastCentralized) is the construction.
//!
//! The result is a `(1+ε, β)`-emulator with ≤ `n^(1+1/κ)` edges in
//! `O(|E|·β·n^ρ)`-style time (Theorem 3.13). The size telescopes exactly
//! as in eq. (18)–(19) because `deg_{i+1} ≤ deg_i²` throughout the §3.1.1
//! schedule, and every supercluster absorbs ≥ `deg_i + 1` clusters
//! (Lemma 3.5 with one supercluster per tree).

#[cfg(test)]
mod tests {
    use crate::charging::ChargeLedger;
    use crate::emulator::Emulator;
    use crate::engine::Engine;
    use crate::params::DistributedParams;
    use crate::sai::{run_phases, EdgeForm, SaiTrace};
    use crate::verify::audit_stretch;
    use usnae_graph::distance::sample_pairs;
    use usnae_graph::generators;
    use usnae_graph::Graph;

    /// The §3.3 build on `engine`: the SAI loop with weighted edges.
    fn build_fast_on(
        g: &Graph,
        params: &DistributedParams,
        engine: &Engine<'_>,
    ) -> (Emulator, SaiTrace, Vec<crate::exec::PhaseTiming>) {
        let phases = params.phase_numbers(g.num_vertices());
        run_phases(g, &phases, EdgeForm::Weighted, engine)
    }

    /// The sequential in-process build, timings dropped.
    fn build_fast(g: &Graph, params: &DistributedParams) -> (Emulator, SaiTrace) {
        let (emulator, trace, _) = build_fast_on(g, params, &Engine::inproc(g, 1));
        (emulator, trace)
    }

    fn params(eps: f64, kappa: u32, rho: f64) -> DistributedParams {
        DistributedParams::new(eps, kappa, rho).unwrap()
    }

    #[test]
    fn size_bound_holds_across_families() {
        let graphs: Vec<(&str, usnae_graph::Graph)> = vec![
            ("gnp", generators::gnp_connected(300, 0.05, 1).unwrap()),
            ("grid", generators::grid2d(17, 18).unwrap()),
            ("ba", generators::barabasi_albert(300, 3, 2).unwrap()),
            ("ws", generators::watts_strogatz(300, 6, 0.1, 3).unwrap()),
        ];
        for (name, g) in &graphs {
            for &(kappa, rho) in &[(4u32, 0.5f64), (8, 0.4), (3, 0.5)] {
                let p = params(0.5, kappa, rho);
                let h = build_fast(g, &p).0;
                let bound = p.size_bound(g.num_vertices());
                assert!(
                    h.num_edges() as f64 <= bound + 1e-6,
                    "{name} kappa={kappa} rho={rho}: {} > {bound}",
                    h.num_edges()
                );
            }
        }
    }

    #[test]
    fn stretch_certified_on_samples() {
        let g = generators::gnp_connected(250, 0.03, 7).unwrap();
        let p = params(0.5, 4, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let h = build_fast(&g, &p).0;
        let pairs = sample_pairs(&g, 500, 11);
        let report = audit_stretch(&g, h.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn stretch_certified_on_high_diameter_graph() {
        let g = generators::grid2d(20, 10).unwrap();
        let p = params(0.9, 3, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let h = build_fast(&g, &p).0;
        let pairs = sample_pairs(&g, 400, 13);
        let report = audit_stretch(&g, h.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn charging_discipline_holds() {
        for seed in 0..4u64 {
            let g = generators::gnp_connected(220, 0.05, seed).unwrap();
            let p = params(0.5, 4, 0.5);
            let h = build_fast(&g, &p).0;
            let ledger = ChargeLedger::from_emulator(&h);
            ledger
                .verify(|phase| p.degree_cap(phase, 220))
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn ruling_set_separation_and_domination() {
        let g = generators::grid2d(15, 15).unwrap();
        let w: Vec<usize> = (0..225).step_by(3).collect();
        let delta = 2;
        let rulers = crate::sai::ruling_set(&g, &w, delta);
        assert!(!rulers.is_empty());
        // Separation: pairwise distance > 2δ.
        for (a, &u) in rulers.iter().enumerate() {
            let dist = usnae_graph::bfs::bfs(&g, u);
            for &v in rulers.iter().skip(a + 1) {
                assert!(dist[v].unwrap() > 2 * delta, "rulers {u},{v} too close");
            }
            // Domination: every w within 2δ of some ruler — checked below.
        }
        for &cand in &w {
            let dist = usnae_graph::bfs::bfs_bounded(&g, cand, 2 * delta);
            assert!(
                rulers.iter().any(|&r| dist[r].is_some()),
                "candidate {cand} undominated"
            );
        }
    }

    #[test]
    fn superclusters_absorb_enough_clusters() {
        // Lemma 3.5 with one supercluster per tree: ≥ deg_i + 1 clusters.
        let g = generators::gnp_connected(400, 0.08, 5).unwrap();
        let p = params(0.5, 4, 0.5);
        let (_, trace) = build_fast(&g, &p);
        for i in 0..trace.partitions.len() - 1 {
            let cap = p.degree_cap(i, 400);
            let prev_map = trace.partitions[i].vertex_to_cluster(400);
            for sc in trace.partitions[i + 1].clusters() {
                let absorbed: std::collections::HashSet<usize> = sc
                    .members
                    .iter()
                    .map(|&v| prev_map[v].expect("clustered"))
                    .collect();
                assert!(
                    absorbed.len() > cap,
                    "phase {i}: {} clusters",
                    absorbed.len()
                );
            }
        }
    }

    #[test]
    fn path_graph_is_reproduced() {
        let g = generators::path(12).unwrap();
        let p = params(0.5, 2, 0.5);
        let h = build_fast(&g, &p).0;
        // No popularity on a path at phase 0 (deg_0 ≈ 3.46 > 2 neighbors);
        // everything is interconnection of adjacent vertices.
        assert_eq!(h.num_edges(), 11);
    }

    #[test]
    fn ultra_sparse_distributed_params() {
        let g = generators::gnp_connected(1024, 0.01, 3).unwrap();
        let p = params(0.5, 100, 0.5);
        let h = build_fast(&g, &p).0;
        assert!(h.num_edges() as f64 <= p.size_bound(1024));
        assert!(h.num_edges() <= 1024 + 73);
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        for seed in [2u64, 6] {
            let g = generators::gnp_connected(260, 0.05, seed).unwrap();
            let p = params(0.5, 4, 0.5);
            let (h1, t1, timings) = build_fast_on(&g, &p, &Engine::inproc(&g, 1));
            assert_eq!(timings.len(), t1.phases.len());
            for threads in [2usize, 4, 8] {
                let (ht, tt, _) = build_fast_on(&g, &p, &Engine::inproc(&g, threads));
                assert_eq!(
                    h1.provenance(),
                    ht.provenance(),
                    "seed {seed} threads {threads}: edge stream diverged"
                );
                assert_eq!(t1.phases, tt.phases, "seed {seed} threads {threads}");
            }
            // And the partitioned layout reproduces the same stream.
            for policy in usnae_graph::partition::PartitionPolicy::all() {
                let cfg = crate::api::BuildConfig {
                    partition: policy,
                    shards: 4,
                    threads: 2,
                    ..crate::api::BuildConfig::default()
                };
                let (hp, tp, _) = build_fast_on(&g, &p, &Engine::new(&g, &cfg));
                assert_eq!(h1.provenance(), hp.provenance(), "seed {seed} {policy}");
                assert_eq!(t1.phases, tp.phases, "seed {seed} {policy}");
            }
        }
    }

    #[test]
    fn trace_is_internally_consistent() {
        let g = generators::gnp_connected(300, 0.06, 9).unwrap();
        let p = params(0.5, 4, 0.5);
        let (h, trace) = build_fast(&g, &p);
        let inserted: usize = trace
            .phases
            .iter()
            .map(|t| t.interconnection_edges + t.superclustering_edges)
            .sum();
        assert!(h.num_edges() <= inserted);
        assert_eq!(h.provenance().len(), inserted);
        for t in &trace.phases {
            assert!(t.num_superclusters <= t.ruling_set_size || t.ruling_set_size == 0);
            assert!(t.num_popular <= t.num_clusters);
        }
    }
}
