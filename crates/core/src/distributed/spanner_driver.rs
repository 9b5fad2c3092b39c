//! Distributed construction of the §4 near-additive **spanner** in the
//! CONGEST simulator (Corollary 4.4).
//!
//! Reuses the emulator pipeline's protocols — capped Bellman-Ford
//! detection, min-id ball-carving ruling sets, BFS ruling forests — but, as
//! §4 observes, superclustering becomes *simpler* than for emulators:
//! spanner edges are graph edges added **locally** (a tree vertex adds the
//! edge to its parent; a path vertex adds its two path edges), so no
//! hub-vertex splitting is needed and one supercluster forms per tree.
//!
//! Two steps remain message-driven and are charged explicitly on top of the
//! simulated runs: the parent notification after the forest BFS (1 round)
//! and the path-marking pass in which centers confirm interconnection paths
//! hop by hop (pipelined, ≤ `δ_i + ⌈deg_i⌉` rounds; the path edges are read
//! out of the per-node `via` routing state the detection run left behind —
//! exactly the knowledge Theorem 3.1(2) promises to path vertices).

use std::collections::BTreeMap;

use crate::cluster::{Cluster, Partition};
use crate::emulator::{EdgeKind, EdgeProvenance, Emulator};
use crate::exec::PhaseTiming;
use crate::params::SpannerParams;
use usnae_congest::{CongestError, Metrics, Simulator};
use usnae_graph::{Dist, Graph, VertexId};

use super::forest::BfsForest;
use super::popular::PopularDetect;
use super::ruling::compute_ruling_set;

const RUN_BUDGET: u64 = 1 << 40;

/// Per-phase record of the distributed spanner execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannerDriverPhase {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|` at phase entry.
    pub num_clusters: usize,
    /// Popular clusters detected.
    pub num_popular: usize,
    /// Ruling set size (= superclusters formed).
    pub num_superclusters: usize,
    /// Clusters left unclustered.
    pub num_unclustered: usize,
    /// Spanner edge insertions from forest tree paths.
    pub superclustering_edges: usize,
    /// Spanner edge insertions from interconnection paths.
    pub interconnection_edges: usize,
    /// Rounds consumed by this phase (incl. explicit charges).
    pub rounds: u64,
}

/// Result of a distributed spanner build.
#[derive(Debug)]
pub struct DistributedSpannerBuild {
    /// The spanner (unit-weight subgraph of `G`).
    pub spanner: Emulator,
    /// Per-phase records.
    pub phases: Vec<SpannerDriverPhase>,
    /// Final CONGEST metrics.
    pub metrics: Metrics,
    /// Wall-clock per-phase timings (`explorations` counts the detection
    /// sources simulated that phase), for [`BuildStats`](crate::exec::BuildStats).
    pub timings: Vec<PhaseTiming>,
}

/// Crate-internal entry point behind [`crate::api::EmulatorBuilder`]: runs
/// the §4 spanner construction distributedly on `g`, on the simulator.
///
/// # Errors
///
/// Propagates [`CongestError`] from the simulator.
pub(crate) fn build_spanner_congest(
    g: &Graph,
    params: &SpannerParams,
) -> Result<DistributedSpannerBuild, CongestError> {
    let n = g.num_vertices();
    let mut sim = Simulator::new(g);
    let mut spanner = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut phases = Vec::with_capacity(params.ell() + 1);
    let mut timings = Vec::with_capacity(params.ell() + 1);

    for i in 0..=params.ell() {
        let last = i == params.ell();
        let phase_start = std::time::Instant::now();
        let rounds_before = sim.metrics().rounds;
        let delta_eff = params.delta(i).min(n as Dist);
        let cap = params.degree_cap(i, n);
        let centers = partition.centers();
        let center_of = partition.center_index();

        let mut trace = SpannerDriverPhase {
            phase: i,
            num_clusters: partition.len(),
            num_popular: 0,
            num_superclusters: 0,
            num_unclustered: 0,
            superclustering_edges: 0,
            interconnection_edges: 0,
            rounds: 0,
        };

        // Task 1: detection (also the path knowledge for interconnection).
        let mut detect = PopularDetect::new(n, &centers, cap, delta_eff);
        sim.run(&mut detect, RUN_BUDGET)?;
        let explorations = centers.len();

        let mut superclustered = vec![false; n]; // indexed by center vertex
        let mut next_clusters: Vec<Cluster> = Vec::new();

        if !last {
            let popular = detect.popular_centers();
            trace.num_popular = popular.len();
            if !popular.is_empty() {
                let rs = compute_ruling_set(&mut sim, &popular, delta_eff, RUN_BUDGET)?;
                let horizon = params.forest_depth(i).min(n as Dist);
                let mut forest = BfsForest::new(n, &rs.rulers, horizon);
                sim.run(&mut forest, RUN_BUDGET)?;
                sim.charge_rounds(1); // parent notification

                // One supercluster per tree; members mark their tree paths.
                // The BTreeMap keeps the supercluster drain in ascending
                // root order without a separate sort.
                let mut members: BTreeMap<VertexId, Vec<usize>> =
                    rs.rulers.iter().map(|&r| (r, Vec::new())).collect();
                let mut marked = vec![false; n];
                for &rc in &centers {
                    let Some(slot) = forest.slot(rc) else {
                        continue;
                    };
                    superclustered[rc] = true;
                    members
                        .get_mut(&slot.root)
                        .expect("roots seeded")
                        .push(center_of[&rc]);
                    // Walk the tree path to the root, adding unmarked edges.
                    let mut cur = rc;
                    while let Some(s) = forest.slot(cur) {
                        if marked[cur] {
                            break; // the rest of the path is already in
                        }
                        marked[cur] = true;
                        let Some(p) = s.parent else { break };
                        if spanner.add_edge(
                            cur,
                            p,
                            1,
                            EdgeProvenance {
                                phase: i,
                                kind: EdgeKind::Superclustering,
                                charged_to: rc,
                            },
                        ) {
                            trace.superclustering_edges += 1;
                        }
                        cur = p;
                    }
                }
                // Path marking travels up the trees, pipelined.
                sim.charge_rounds(params.forest_depth(i).min(n as Dist) + cap as u64);

                for (r, idxs) in &members {
                    let mut cluster_members = Vec::new();
                    for &idx in idxs {
                        cluster_members.extend_from_slice(&partition.cluster(idx).members);
                    }
                    if cluster_members.is_empty() {
                        continue; // ruler whose cluster was claimed elsewhere
                    }
                    next_clusters.push(Cluster {
                        center: *r,
                        members: cluster_members,
                    });
                }
                trace.num_superclusters = next_clusters.len();
            }
        }

        // Interconnection: unclustered centers confirm shortest paths to all
        // neighboring centers along the detection run's via-pointers. The
        // knowledge tables are BTreeMaps, so targets are visited in
        // ascending id per center — the spanner's defined emission order.
        let u_centers: Vec<VertexId> = centers
            .iter()
            .copied()
            .filter(|&c| !superclustered[c])
            .collect();
        trace.num_unclustered = u_centers.len();
        for &rc in &u_centers {
            let known: Vec<(VertexId, Dist)> = detect
                .known(rc)
                .iter()
                .map(|(&c, &d)| (c, d))
                .filter(|&(c, _)| c != rc)
                .collect();
            for (target, dist) in known {
                // Walk via-pointers from rc toward the target; each hop is a
                // graph edge on a shortest path (Theorem 3.1(2)).
                let mut cur = rc;
                let mut remaining = dist;
                while cur != target {
                    let next = detect
                        .learned_via(cur, target)
                        .expect("path vertices know their routing pointer");
                    if spanner.add_edge(
                        cur,
                        next,
                        1,
                        EdgeProvenance {
                            phase: i,
                            kind: EdgeKind::Interconnection,
                            charged_to: rc,
                        },
                    ) {
                        trace.interconnection_edges += 1;
                    }
                    cur = next;
                    remaining = remaining.saturating_sub(1);
                    assert!(remaining > 0 || cur == target, "via-chain must terminate");
                }
            }
        }
        if !u_centers.is_empty() {
            // The confirmation pass pipelines over the paths.
            sim.charge_rounds(delta_eff + cap as u64);
        }

        trace.rounds = sim.metrics().rounds - rounds_before;
        phases.push(trace);
        timings.push(PhaseTiming {
            phase: i,
            duration: phase_start.elapsed(),
            explorations,
        });
        partition = Partition::from_clusters(next_clusters);
    }

    Ok(DistributedSpannerBuild {
        spanner,
        phases,
        metrics: sim.metrics().clone(),
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{audit_stretch, is_subgraph_spanner};
    use usnae_graph::distance::sample_pairs;
    use usnae_graph::generators;

    #[test]
    fn subgraph_and_stretch_on_random_graphs() {
        for seed in 0..3u64 {
            let g = generators::gnp_connected(100, 0.07, seed).unwrap();
            let p = SpannerParams::new(0.5, 4, 0.5).unwrap();
            let build = build_spanner_congest(&g, &p).unwrap();
            assert!(
                is_subgraph_spanner(&g, build.spanner.graph()),
                "seed {seed}"
            );
            let (alpha, beta) = p.certified_stretch();
            let pairs = sample_pairs(&g, 150, 7);
            let rep = audit_stretch(&g, build.spanner.graph(), alpha, beta, &pairs);
            assert!(rep.passed(), "seed {seed}: {rep:?}");
        }
    }

    #[test]
    fn agrees_with_centralized_on_path() {
        let g = generators::path(30).unwrap();
        let p = SpannerParams::new(0.5, 2, 0.5).unwrap();
        let build = build_spanner_congest(&g, &p).unwrap();
        assert_eq!(build.spanner.num_edges(), 29);
        assert!(build.metrics.rounds > 0);
    }

    #[test]
    fn size_within_small_factor_of_bound() {
        let g = generators::gnp_connected(200, 0.1, 5).unwrap();
        let p = SpannerParams::new(0.5, 4, 0.5).unwrap();
        let build = build_spanner_congest(&g, &p).unwrap();
        assert!(
            (build.spanner.num_edges() as f64) <= 4.0 * p.size_bound(200),
            "{} vs {}",
            build.spanner.num_edges(),
            p.size_bound(200)
        );
        assert!(build.spanner.num_edges() <= g.num_edges());
    }

    #[test]
    fn rounds_accounted_per_phase() {
        let g = generators::grid2d(9, 9).unwrap();
        let p = SpannerParams::new(0.5, 4, 0.5).unwrap();
        let build = build_spanner_congest(&g, &p).unwrap();
        assert_eq!(
            build.phases.iter().map(|t| t.rounds).sum::<u64>(),
            build.metrics.rounds
        );
    }

    #[test]
    fn spanner_connects_what_g_connects() {
        let g = generators::caveman(12, 8).unwrap();
        let p = SpannerParams::new(0.5, 4, 0.5).unwrap();
        let build = build_spanner_congest(&g, &p).unwrap();
        let d = build.spanner.distances_from(0);
        assert!(d.iter().all(|x| x.is_some()));
    }
}
