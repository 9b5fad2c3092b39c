//! Phase orchestration of the distributed construction (§3.1).
//!
//! Runs Tasks 1–3 and the interconnection step back to back on one
//! [`Simulator`], so the accumulated [`Metrics`] are the honest CONGEST
//! cost of the whole execution. The emulator is assembled strictly from
//! *per-node* knowledge (what each processor learned through messages), and
//! the driver cross-checks the paper's headline distributed property: for
//! every emulator edge `(u, v)`, **both** endpoints know the edge and agree
//! on its weight ([`DistributedBuild::knowledge_violations`] must be 0).
//!
//! Two explicit round charges supplement the simulated rounds
//! (substitution S2): one round per phase for parent notification after the
//! forest BFS, and `min(R_{i+1}, n)` rounds for the intra-cluster membership
//! broadcast the paper folds into the radius recursion.

use std::collections::BTreeMap;

use crate::cluster::{Cluster, Partition};
use crate::emulator::{EdgeKind, EdgeProvenance, Emulator};
use crate::exec::PhaseTiming;
use crate::params::DistributedParams;
use usnae_congest::{CongestError, Metrics, Simulator};
use usnae_graph::{Dist, Graph, VertexId};

use super::forest::BfsForest;
use super::popular::PopularDetect;
use super::ruling::compute_ruling_set;
use super::supercluster::Supercluster;

/// Round budget per protocol run — far above anything the constructions
/// need; hitting it indicates a protocol bug, not a slow graph.
const RUN_BUDGET: u64 = 1 << 40;

/// Per-phase record of the distributed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPhaseTrace {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|` at phase entry.
    pub num_clusters: usize,
    /// Distance threshold `δ_i` (pre-clamping).
    pub delta: Dist,
    /// The clamped exploration depth actually simulated (`min(δ_i, n)`).
    pub delta_effective: Dist,
    /// Popular clusters detected.
    pub num_popular: usize,
    /// Ruling set size.
    pub ruling_set_size: usize,
    /// Ball-carving iterations the ruling set needed.
    pub ruling_iterations: usize,
    /// Superclusters formed.
    pub num_superclusters: usize,
    /// Hub splits during backtracking.
    pub hub_splits: usize,
    /// Clusters left unclustered.
    pub num_unclustered: usize,
    /// Superclustering edge insertions.
    pub superclustering_edges: usize,
    /// Interconnection edge insertions.
    pub interconnection_edges: usize,
    /// Simulated rounds consumed by this phase (incl. explicit charges).
    pub rounds: u64,
}

/// Result of a distributed build.
#[derive(Debug)]
pub struct DistributedBuild {
    /// The emulator, assembled from per-node knowledge.
    pub emulator: Emulator,
    /// Per-phase execution records.
    pub phases: Vec<DistributedPhaseTrace>,
    /// Final CONGEST metrics (rounds, messages, words, congestion).
    pub metrics: Metrics,
    /// `partitions[i]` is `P_i`.
    pub partitions: Vec<Partition>,
    /// Edge-knowledge cross-checks performed.
    pub knowledge_checked: usize,
    /// Cross-checks that failed — the headline guarantee demands **0**.
    pub knowledge_violations: usize,
    /// Wall-clock per-phase timings (`explorations` counts the detection
    /// sources simulated that phase), for [`BuildStats`](crate::exec::BuildStats).
    pub timings: Vec<PhaseTiming>,
}

/// Crate-internal entry point behind [`crate::api::EmulatorBuilder`]: runs
/// the §3 CONGEST pipeline end to end on `g`.
///
/// # Errors
///
/// Propagates [`CongestError`] from the simulator (contract violations or
/// an exhausted round budget — both indicate bugs, not bad inputs).
pub(crate) fn build_distributed(
    g: &Graph,
    params: &DistributedParams,
) -> Result<DistributedBuild, CongestError> {
    let n = g.num_vertices();
    let mut sim = Simulator::new(g);
    let mut emulator = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut build = DistributedBuild {
        emulator: Emulator::new(0), // replaced at the end
        phases: Vec::with_capacity(params.ell() + 1),
        metrics: Metrics::new(),
        partitions: vec![partition.clone()],
        knowledge_checked: 0,
        knowledge_violations: 0,
        timings: Vec::with_capacity(params.ell() + 1),
    };

    for i in 0..=params.ell() {
        let last = i == params.ell();
        let phase_start = std::time::Instant::now();
        let rounds_before = sim.metrics().rounds;
        let delta = params.delta(i);
        let delta_eff = delta.min(n as Dist);
        let cap = params.degree_cap(i, n);
        let centers = partition.centers();
        let center_of = partition.center_index();

        let mut trace = DistributedPhaseTrace {
            phase: i,
            num_clusters: partition.len(),
            delta,
            delta_effective: delta_eff,
            num_popular: 0,
            ruling_set_size: 0,
            ruling_iterations: 0,
            num_superclusters: 0,
            hub_splits: 0,
            num_unclustered: 0,
            superclustering_edges: 0,
            interconnection_edges: 0,
            rounds: 0,
        };

        // Task 1: popular-cluster detection from all P_i centers.
        let mut detect = PopularDetect::new(n, &centers, cap, delta_eff);
        sim.run(&mut detect, RUN_BUDGET)?;
        let mut explorations = centers.len();

        // Supercluster assignment per center vertex, index-keyed so
        // membership tests never touch iteration order.
        let mut joined: Vec<Option<(VertexId, Dist)>> = vec![None; n];
        let mut next_clusters: Vec<Cluster> = Vec::new();

        if !last {
            let popular = detect.popular_centers();
            trace.num_popular = popular.len();
            if !popular.is_empty() {
                // Task 2: ruling set over the popular centers.
                let rs = compute_ruling_set(&mut sim, &popular, delta_eff, RUN_BUDGET)?;
                trace.ruling_set_size = rs.rulers.len();
                trace.ruling_iterations = rs.iterations;

                // Task 3: BFS ruling forest + backtracking superclustering.
                let horizon = params.forest_depth(i).min(n as Dist);
                let mut forest = BfsForest::new(n, &rs.rulers, horizon);
                sim.run(&mut forest, RUN_BUDGET)?;
                sim.charge_rounds(1); // children learn they are children (S2)
                let slots: Vec<_> = (0..n).map(|v| forest.slot(v)).collect();
                let mut is_center = vec![false; n];
                for &c in &centers {
                    is_center[c] = true;
                }
                let mut sc = Supercluster::new(slots, is_center, cap, horizon);
                sim.run(&mut sc, RUN_BUDGET)?;
                trace.hub_splits = sc.hubs().len();

                // Assemble superclusters from the joint knowledge, checking
                // the both-endpoints property on every edge. Grouping by
                // root in a BTreeMap fixes the supercluster emission order
                // (ascending root id) independently of any hashing.
                let mut members: BTreeMap<VertexId, Vec<usize>> = BTreeMap::new();
                for &c in &centers {
                    let Some((r, w)) = sc.joined(c) else { continue };
                    joined[c] = Some((r, w));
                    members.entry(r).or_default().push(center_of[&c]);
                    if c != r {
                        build.knowledge_checked += 1;
                        if !sc.edges_at(r).contains(&(c, w)) {
                            build.knowledge_violations += 1;
                        }
                        emulator.add_edge(
                            r,
                            c,
                            w,
                            EdgeProvenance {
                                phase: i,
                                kind: EdgeKind::Superclustering,
                                charged_to: c,
                            },
                        );
                        trace.superclustering_edges += 1;
                    }
                }
                debug_assert!(
                    popular.iter().all(|&c| joined[c].is_some()),
                    "every popular cluster is superclustered (Lemma 3.4)"
                );
                for (r, idxs) in &members {
                    let mut cluster_members = Vec::new();
                    for &idx in idxs {
                        cluster_members.extend_from_slice(&partition.cluster(idx).members);
                    }
                    next_clusters.push(Cluster {
                        center: *r,
                        members: cluster_members,
                    });
                }
                trace.num_superclusters = next_clusters.len();
                // Membership broadcast inside superclusters (S2): the paper
                // folds this depth into R_{i+1}.
                let radius = params.schedule().radius[i + 1].min(n as Dist);
                sim.charge_rounds(radius);
            }
        }

        // Interconnection step (§3.1.3). Knowledge tables are BTreeMaps, so
        // the edge stream below is emitted in (center, neighbor-id) order —
        // the driver's single defined order, identical on every run.
        let u_centers: Vec<VertexId> = centers
            .iter()
            .copied()
            .filter(|&c| joined[c].is_none())
            .collect();
        trace.num_unclustered = u_centers.len();
        if last {
            // Phase ℓ: every center is unpopular; the single detection run
            // gives symmetric exact knowledge (Theorem 3.1).
            for &u in &u_centers {
                for (&c, &d) in detect.known(u) {
                    if c == u {
                        continue;
                    }
                    build.knowledge_checked += 1;
                    if detect.known(c).get(&u) != Some(&d) {
                        build.knowledge_violations += 1;
                    }
                    emulator.add_edge(
                        u,
                        c,
                        d,
                        EdgeProvenance {
                            phase: i,
                            kind: EdgeKind::Interconnection,
                            charged_to: u,
                        },
                    );
                    trace.interconnection_edges += 1;
                }
            }
        } else if !u_centers.is_empty() {
            // Second detection run from U_i so the *other* endpoints learn
            // of the new edges too.
            let mut reverse = PopularDetect::new(n, &u_centers, cap, delta_eff);
            sim.run(&mut reverse, RUN_BUDGET)?;
            explorations += u_centers.len();
            for &u in &u_centers {
                for (&c, &d) in detect.known(u) {
                    if c == u {
                        continue;
                    }
                    build.knowledge_checked += 1;
                    if reverse.known(c).get(&u) != Some(&d) {
                        build.knowledge_violations += 1;
                    }
                    emulator.add_edge(
                        u,
                        c,
                        d,
                        EdgeProvenance {
                            phase: i,
                            kind: EdgeKind::Interconnection,
                            charged_to: u,
                        },
                    );
                    trace.interconnection_edges += 1;
                }
            }
        }

        trace.rounds = sim.metrics().rounds - rounds_before;
        build.phases.push(trace);
        build.timings.push(PhaseTiming {
            phase: i,
            duration: phase_start.elapsed(),
            explorations,
        });
        partition = Partition::from_clusters(next_clusters);
        build.partitions.push(partition.clone());
    }

    debug_assert!(partition.is_empty(), "P_(ell+1) must be empty (eq. 17)");
    build.metrics = sim.metrics().clone();
    build.emulator = emulator;
    Ok(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charging::ChargeLedger;
    use crate::verify::audit_stretch;
    use usnae_graph::distance::sample_pairs;
    use usnae_graph::generators;

    fn params(eps: f64, kappa: u32, rho: f64) -> DistributedParams {
        DistributedParams::new(eps, kappa, rho).unwrap()
    }

    #[test]
    fn size_and_knowledge_on_random_graphs() {
        for seed in 0..3u64 {
            let g = generators::gnp_connected(100, 0.06, seed).unwrap();
            let p = params(0.5, 4, 0.5);
            let build = build_distributed(&g, &p).unwrap();
            assert_eq!(build.knowledge_violations, 0, "seed {seed}");
            assert!(build.knowledge_checked > 0);
            assert!(
                build.emulator.num_edges() as f64 <= p.size_bound(100) + 1e-6,
                "seed {seed}: {} > {}",
                build.emulator.num_edges(),
                p.size_bound(100)
            );
        }
    }

    #[test]
    fn stretch_certified() {
        let g = generators::gnp_connected(90, 0.07, 11).unwrap();
        let p = params(0.5, 4, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let build = build_distributed(&g, &p).unwrap();
        let pairs = sample_pairs(&g, 300, 7);
        let report = audit_stretch(&g, build.emulator.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn stretch_certified_on_grid() {
        let g = generators::grid2d(9, 9).unwrap();
        let p = params(0.9, 3, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let build = build_distributed(&g, &p).unwrap();
        let pairs = sample_pairs(&g, 200, 3);
        let report = audit_stretch(&g, build.emulator.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn charging_discipline_holds() {
        let g = generators::gnp_connected(100, 0.08, 5).unwrap();
        let p = params(0.5, 4, 0.5);
        let build = build_distributed(&g, &p).unwrap();
        let ledger = ChargeLedger::from_emulator(&build.emulator);
        ledger.verify(|phase| p.degree_cap(phase, 100)).unwrap();
    }

    #[test]
    fn rounds_accounted_per_phase() {
        let g = generators::gnp_connected(80, 0.08, 9).unwrap();
        let p = params(0.5, 4, 0.5);
        let build = build_distributed(&g, &p).unwrap();
        let total: u64 = build.phases.iter().map(|t| t.rounds).sum();
        assert_eq!(total, build.metrics.rounds);
        assert!(build.metrics.rounds > 0);
        assert!(build.metrics.messages > 0);
    }

    #[test]
    fn star_collapses_distributedly() {
        let g = generators::star(40).unwrap();
        let p = params(0.5, 4, 0.5);
        let build = build_distributed(&g, &p).unwrap();
        assert_eq!(build.knowledge_violations, 0);
        // The hub is popular in phase 0, so a supercluster forms and P_1 has
        // a single cluster containing everything within the horizon.
        assert_eq!(build.phases[0].num_popular, 1);
        assert!(build.phases[0].num_superclusters >= 1);
    }

    #[test]
    fn path_stays_flat() {
        let g = generators::path(30).unwrap();
        let p = params(0.5, 4, 0.5);
        let build = build_distributed(&g, &p).unwrap();
        // Nobody is popular on a path at phase 0 with deg_0 = 30^0.25 ≈ 2.3;
        // the emulator is the path itself.
        assert_eq!(build.phases[0].num_popular, 0);
        assert_eq!(build.emulator.num_edges(), 29);
    }

    #[test]
    fn broom_exercises_hub_splitting_end_to_end() {
        let g = generators::broom(16, 2).unwrap();
        let p = params(0.5, 2, 0.5);
        let build = build_distributed(&g, &p).unwrap();
        assert_eq!(build.knowledge_violations, 0);
        let (alpha, beta) = p.certified_stretch();
        let pairs = sample_pairs(&g, 200, 5);
        let report = audit_stretch(&g, build.emulator.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn partitions_cover_and_telescope() {
        let g = generators::gnp_connected(120, 0.07, 13).unwrap();
        let p = params(0.5, 4, 0.5);
        let build = build_distributed(&g, &p).unwrap();
        // eq. 15: |P_{i+1}| ≤ |P_i| / deg_i.
        for i in 0..build.partitions.len() - 1 {
            let cur = build.partitions[i].len() as f64;
            let next = build.partitions[i + 1].len() as f64;
            if next > 0.0 {
                assert!(
                    next <= cur / p.degree_threshold(i, 120) + 1e-9,
                    "phase {i}: {next} > {cur}/deg"
                );
            }
        }
    }
}
