//! The centralized construction — Algorithm 1 of the paper (§2.1).
//!
//! Superclustering-and-interconnection over partial partitions `P_0 … P_ℓ`:
//! each phase sequentially considers cluster centers. A center `r_C` that
//! finds fewer than `deg_i` neighboring centers in `S_i ∪ N_i` (within
//! distance `δ_i` in `G`) is *unpopular*: it joins `U_i` and is charged with
//! the interconnection edges it just added (Fig. 1). A popular center forms
//! a supercluster absorbing all of `Γ(r_C)` (Fig. 2), and — the paper's key
//! innovation over EP01 — every center still in `S_i` at distance in
//! `(δ_i, 2δ_i]` moves into the *buffer set* `N_i` (Fig. 3): it may join a
//! future supercluster, and otherwise falls back to this one at phase end
//! (Fig. 4). Buffering is what removes EP01's ground partition and its
//! `n − 1` extra edges, letting the total size telescope to exactly
//! `n^(1+1/κ)` (Lemma 2.4).
//!
//! On the unweighted input the paper's "Dijkstra exploration to depth
//! `δ_i`" is a bounded BFS; we explore once to `2·δ_i` and reuse the
//! distances for both the `Γ(r_C)` computation and the buffer step.
//!
//! The explorations are the dominant cost and are pure functions of `G`,
//! so each phase prefetches them for a chunk of centers through
//! [`usnae_graph::par`] (sharded scoped threads). The center-processing
//! loop itself stays sequential and consumes the prefetched balls in
//! center order, so the build is **byte-identical for every thread
//! count** — a ball computed for a center that gets superclustered or
//! buffered before its turn is simply discarded, exactly as the lazy
//! sequential loop would never have computed it.

use crate::cluster::{Cluster, Partition};
use crate::emulator::{EdgeKind, EdgeProvenance, Emulator};
use crate::engine::Engine;
use crate::exec::{ChunkPolicy, PhaseClock, PhaseTiming};
use crate::params::CentralizedParams;
use usnae_graph::{AdjStorage, Dist, Graph, GraphCore, VertexId};

/// Order in which phase `i` pops centers from `S_i`.
///
/// The paper's bounds hold for *any* order, but the realized sets `U_i`
/// differ (its §2.1.1 star example); experiments F1–F3 ablate this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessingOrder {
    /// Ascending vertex id (deterministic default).
    #[default]
    ById,
    /// Descending vertex id.
    ByIdDesc,
    /// Descending `G`-degree, ties by id — hubs first.
    ByDegreeDesc,
    /// Ascending `G`-degree, ties by id — hubs last.
    ByDegreeAsc,
}

impl ProcessingOrder {
    fn arrange<S: AdjStorage>(&self, centers: &mut [VertexId], g: &GraphCore<S>) {
        match self {
            ProcessingOrder::ById => centers.sort_unstable(),
            ProcessingOrder::ByIdDesc => centers.sort_unstable_by(|a, b| b.cmp(a)),
            ProcessingOrder::ByDegreeDesc => {
                centers.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v))
            }
            ProcessingOrder::ByDegreeAsc => centers.sort_unstable_by_key(|&v| (g.degree(v), v)),
        }
    }
}

/// Per-phase statistics of one build.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTrace {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|` at phase entry.
    pub num_clusters: usize,
    /// Distance threshold `δ_i`.
    pub delta: Dist,
    /// Real-valued popularity threshold `deg_i`.
    pub degree_threshold: f64,
    /// `|U_i|`: clusters left unclustered this phase.
    pub num_unclustered: usize,
    /// Superclusters formed (`|P_{i+1}|`).
    pub num_superclusters: usize,
    /// Centers that passed through the buffer set `N_i`.
    pub num_buffered: usize,
    /// Interconnection edge insertions.
    pub interconnection_edges: usize,
    /// Superclustering edge insertions.
    pub superclustering_edges: usize,
    /// Buffer-join edge insertions (Fig. 4).
    pub buffer_join_edges: usize,
}

/// Full build record: per-phase stats, the partitions `P_0 … P_{ℓ+1}`, and
/// the unclustered families `U_0 … U_ℓ` (whose union partitions `V`,
/// Lemma 2.8).
#[derive(Debug, Clone)]
pub struct BuildTrace {
    /// One entry per phase `0..=ℓ`.
    pub phases: Vec<PhaseTrace>,
    /// `partitions[i]` is `P_i`; the final entry is `P_{ℓ+1}` (empty).
    pub partitions: Vec<Partition>,
    /// `unclustered[i]` is `U_i`.
    pub unclustered: Vec<Vec<Cluster>>,
}

impl BuildTrace {
    /// Total edge insertions across phases (≥ distinct emulator edges).
    pub fn total_insertions(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.interconnection_edges + p.superclustering_edges + p.buffer_join_edges)
            .sum()
    }

    /// The union `U^(ℓ)` of all unclustered clusters, which must partition
    /// `V` (Lemma 2.8 plus `P_{ℓ+1} = ∅`).
    pub fn all_unclustered(&self) -> Vec<&Cluster> {
        self.unclustered.iter().flatten().collect()
    }
}

/// Crate-internal sequential entry point (oracle, tests):
/// [`build_centralized_exec`] with one thread, timings dropped.
pub(crate) fn build_centralized(
    g: &Graph,
    params: &CentralizedParams,
    order: ProcessingOrder,
) -> (Emulator, BuildTrace) {
    let (emulator, trace, _) = build_centralized_exec(g, params, order, &Engine::inproc(g, 1));
    (emulator, trace)
}

/// Crate-internal entry point behind [`crate::api::EmulatorBuilder`]: runs
/// Algorithm 1 end to end — a `(1+ε, β)`-emulator with at most
/// `n^(1+1/κ)` edges (Corollary 2.14) — sharding the per-center explorations over
/// `engine.threads()` and recording per-phase wall-clock timings. The
/// explorations run through the [`Engine`] — the in-process fan-out over
/// the shared array or CSR shards, or a worker pool exchanging typed
/// frontier messages — byte-identical either way.
pub(crate) fn build_centralized_exec<S: AdjStorage>(
    g: &GraphCore<S>,
    params: &CentralizedParams,
    order: ProcessingOrder,
    engine: &Engine<'_, S>,
) -> (Emulator, BuildTrace, Vec<PhaseTiming>) {
    let n = g.num_vertices();
    let mut emulator = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut trace = BuildTrace {
        phases: Vec::with_capacity(params.ell() + 1),
        partitions: vec![partition.clone()],
        unclustered: Vec::with_capacity(params.ell() + 1),
    };
    let mut clock = PhaseClock::new();
    for i in 0..=params.ell() {
        let last = i == params.ell();
        let (next, phase_trace, u_i) = clock.measure(i, || {
            let (next, phase_trace, u_i, explorations) =
                run_phase(g, engine, &mut emulator, &partition, i, params, last, order);
            ((next, phase_trace, u_i), explorations)
        });
        trace.phases.push(phase_trace);
        trace.unclustered.push(u_i);
        trace.partitions.push(next.clone());
        partition = next;
    }
    debug_assert!(
        partition.is_empty(),
        "P_(ell+1) must be empty: no popular clusters in the last phase (eq. 1)"
    );
    (emulator, trace, clock.into_phases())
}

/// Status of a center during a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Not a center of `P_i`, or already removed.
    Out,
    /// In `S_i` (unprocessed).
    InS,
    /// In the buffer set `N_i`: remembers the supercluster that buffered it
    /// and the distance to that supercluster's center.
    InN { supercluster: usize, dist: Dist },
}

struct SuperclusterBuild {
    center: VertexId,
    member_clusters: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn run_phase<S: AdjStorage>(
    g: &GraphCore<S>,
    engine: &Engine<'_, S>,
    emulator: &mut Emulator,
    partition: &Partition,
    i: usize,
    params: &CentralizedParams,
    last: bool,
    order: ProcessingOrder,
) -> (Partition, PhaseTrace, Vec<Cluster>, usize) {
    let n = g.num_vertices();
    let delta = params.delta(i);
    let two_delta = delta.saturating_mul(2);
    let cap = params.degree_cap(i, n);
    let center_of = partition.center_index();
    let mut centers = partition.centers();

    let mut status = vec![Status::Out; n];
    for &c in &centers {
        status[c] = Status::InS;
    }
    order.arrange(&mut centers, g);

    let mut u_indices: Vec<usize> = Vec::new();
    let mut superclusters: Vec<SuperclusterBuild> = Vec::new();
    let mut phase_trace = PhaseTrace {
        phase: i,
        num_clusters: partition.len(),
        delta,
        degree_threshold: params.degree_threshold(i, n),
        num_unclustered: 0,
        num_superclusters: 0,
        num_buffered: 0,
        interconnection_edges: 0,
        superclustering_edges: 0,
        buffer_join_edges: 0,
    };

    // Explorations are prefetched per chunk: pure bounded BFS, sharded over
    // the thread pool; the sequential consumption below re-checks each
    // center's status, so a ball that became stale (its center was
    // superclustered or buffered mid-chunk) is discarded unused. The chunk
    // size adapts to the observed staleness (see [`ChunkPolicy`]); it never
    // affects the output, only the wasted work.
    let mut explorations = 0usize;
    let mut policy = ChunkPolicy::new(engine.threads());
    let mut pos = 0;
    while pos < centers.len() {
        let block = &centers[pos..(pos + policy.chunk()).min(centers.len())];
        pos += block.len();
        let todo: Vec<VertexId> = block
            .iter()
            .copied()
            .filter(|&c| status[c] == Status::InS)
            .collect();
        if todo.is_empty() {
            continue;
        }
        // One exploration to 2δ_i serves both Γ(r_C) and the buffer step;
        // the ball is sorted by vertex id — the same order the historical
        // dense distance-array scan visited vertices in. Reads go through
        // the engine: local CSR shards when the build is partitioned, a
        // worker pool when a transport is configured.
        let balls = engine.balls(&todo, two_delta);
        explorations += todo.len();
        let mut used = 0usize;
        for (&rc, ball) in todo.iter().zip(&balls) {
            if status[rc] != Status::InS {
                continue; // superclustered or buffered since being prefetched
            }
            used += 1;
            status[rc] = Status::Out; // removed from S_i (Algorithm 1 line 6)

            let mut gamma: Vec<(VertexId, Dist)> = Vec::new();
            for &(v, d) in ball {
                if v != rc && d <= delta && status[v] != Status::Out {
                    gamma.push((v, d));
                }
            }

            let popular = gamma.len() >= cap && !last;
            debug_assert!(
                !last || gamma.len() < cap,
                "phase ell must have no popular clusters (eq. 1): |Gamma| = {}, cap = {cap}",
                gamma.len()
            );
            if !popular {
                for &(v, d) in &gamma {
                    emulator.add_edge(
                        rc,
                        v,
                        d,
                        EdgeProvenance {
                            phase: i,
                            kind: EdgeKind::Interconnection,
                            charged_to: rc,
                        },
                    );
                    phase_trace.interconnection_edges += 1;
                }
                u_indices.push(center_of[&rc]);
            } else {
                let sc_idx = superclusters.len();
                let mut member_clusters = vec![center_of[&rc]];
                for &(v, d) in &gamma {
                    emulator.add_edge(
                        rc,
                        v,
                        d,
                        EdgeProvenance {
                            phase: i,
                            kind: EdgeKind::Superclustering,
                            charged_to: v,
                        },
                    );
                    phase_trace.superclustering_edges += 1;
                    status[v] = Status::Out; // removed from S_i or N_i
                    member_clusters.push(center_of[&v]);
                }
                // Buffer step (Algorithm 1 lines 18–20): S_i centers at distance
                // in (δ_i, 2δ_i] move to N_i, remembering this supercluster.
                for &(v, d) in ball {
                    if d > delta && status[v] == Status::InS {
                        status[v] = Status::InN {
                            supercluster: sc_idx,
                            dist: d,
                        };
                        phase_trace.num_buffered += 1;
                    }
                }
                superclusters.push(SuperclusterBuild {
                    center: rc,
                    member_clusters,
                });
            }
        }
        policy.record(todo.len(), used);
    }

    // Phase end (Algorithm 1 lines 22–26): leftover buffered centers join
    // the supercluster that buffered them.
    let mut buffered: Vec<(VertexId, usize, Dist)> = Vec::new();
    for (v, st) in status.iter().enumerate() {
        if let Status::InN { supercluster, dist } = *st {
            buffered.push((v, supercluster, dist));
        }
    }
    for (v, sc_idx, d) in buffered {
        let sc_center = superclusters[sc_idx].center;
        emulator.add_edge(
            sc_center,
            v,
            d,
            EdgeProvenance {
                phase: i,
                kind: EdgeKind::BufferJoin,
                charged_to: v,
            },
        );
        phase_trace.buffer_join_edges += 1;
        superclusters[sc_idx].member_clusters.push(center_of[&v]);
        status[v] = Status::Out;
    }

    phase_trace.num_unclustered = u_indices.len();
    phase_trace.num_superclusters = superclusters.len();

    let next_clusters: Vec<Cluster> = superclusters
        .into_iter()
        .map(|sc| {
            let mut members = Vec::new();
            for idx in sc.member_clusters {
                members.extend_from_slice(&partition.cluster(idx).members);
            }
            Cluster {
                center: sc.center,
                members,
            }
        })
        .collect();
    let u_clusters: Vec<Cluster> = u_indices
        .into_iter()
        .map(|idx| partition.cluster(idx).clone())
        .collect();

    (
        Partition::from_clusters(next_clusters),
        phase_trace,
        u_clusters,
        explorations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charging::ChargeLedger;
    use usnae_graph::generators;

    fn params(eps: f64, kappa: u32) -> CentralizedParams {
        CentralizedParams::new(eps, kappa).unwrap()
    }

    #[test]
    fn path_graph_yields_graph_itself() {
        // On a sparse path nobody is popular in phase 0 (deg_0 ≥ 3 > 2
        // neighbors), so H contains exactly G's edges with weight 1.
        let g = generators::path(10).unwrap();
        let p = params(0.5, 2);
        let (h, trace) = build_centralized(&g, &p, ProcessingOrder::ById);
        assert_eq!(h.num_edges(), 9);
        assert!(h.graph().edges().all(|e| e.weight == 1));
        assert_eq!(trace.phases[0].num_superclusters, 0);
        assert_eq!(trace.phases[0].num_unclustered, 10);
    }

    #[test]
    fn star_order_dependence_matches_paper_example() {
        // §2.1.1: processing the hub first makes it popular; processing it
        // last leaves it with no S∪N neighbors, hence unpopular.
        let g = generators::star(9).unwrap();
        let p = params(0.5, 2); // deg_0 = 3, cap 3

        let (h_first, t_first) = build_centralized(&g, &p, ProcessingOrder::ByDegreeDesc);
        assert_eq!(t_first.phases[0].num_superclusters, 1);
        assert_eq!(t_first.phases[0].superclustering_edges, 8);
        assert_eq!(h_first.num_edges(), 8);

        let (h_last, t_last) = build_centralized(&g, &p, ProcessingOrder::ByDegreeAsc);
        assert_eq!(t_last.phases[0].num_superclusters, 0);
        assert_eq!(t_last.phases[0].interconnection_edges, 8);
        assert_eq!(h_last.num_edges(), 8);
    }

    #[test]
    fn buffer_join_fires_on_pendant_vertex() {
        // Hub 0 with leaves 1..=5 plus a pendant 6 hanging off leaf 1: when
        // the hub superclusters its leaves, 6 (at distance 2 = 2δ_0) is
        // buffered into N_0 and falls back via a buffer-join edge.
        let mut edges: Vec<(usize, usize)> = (1..=5).map(|v| (0, v)).collect();
        edges.push((1, 6));
        let g = usnae_graph::Graph::from_edges(7, &edges).unwrap();
        let p = params(0.5, 2); // deg_0 = 7^{1/2} ≈ 2.65, cap 3
        let (h, trace) = build_centralized(&g, &p, ProcessingOrder::ById);
        assert_eq!(trace.phases[0].num_superclusters, 1);
        assert_eq!(trace.phases[0].num_buffered, 1);
        assert_eq!(trace.phases[0].buffer_join_edges, 1);
        assert_eq!(h.graph().weight(0, 6), Some(2));
        // The supercluster swallowed everything: one cluster in P_1.
        assert_eq!(trace.partitions[1].len(), 1);
        assert_eq!(trace.partitions[1].cluster(0).len(), 7);
    }

    #[test]
    fn buffered_center_prefers_later_supercluster() {
        // Two hubs far enough apart to supercluster independently, with a
        // middle vertex buffered by the first but captured by the second's
        // Γ; it must join the second supercluster, not buffer-join the first.
        //
        //   leaves—0 …path… m …path… 1—leaves
        //
        // Geometry is fiddly; rather than hand-build, check the invariant on
        // a family of dumbbells: every vertex ends up in exactly one place.
        for bridge in [2usize, 3, 4, 5, 6] {
            let g = generators::dumbbell(5, bridge).unwrap();
            let p = params(0.5, 2);
            let (_, trace) = build_centralized(&g, &p, ProcessingOrder::ById);
            let n = g.num_vertices();
            // Lemma 2.8: U^(ℓ) ∪ P_{ℓ+1} partitions V, and P_{ℓ+1} = ∅.
            let mut covered = vec![false; n];
            for c in trace.all_unclustered() {
                for &v in &c.members {
                    assert!(!covered[v], "vertex {v} covered twice (bridge {bridge})");
                    covered[v] = true;
                }
            }
            assert!(
                covered.iter().all(|&b| b),
                "uncovered vertex (bridge {bridge})"
            );
        }
    }

    #[test]
    fn size_bound_holds_across_families_and_orders() {
        let graphs: Vec<(&str, usnae_graph::Graph)> = vec![
            ("gnp", generators::gnp_connected(300, 0.05, 1).unwrap()),
            ("grid", generators::grid2d(18, 17).unwrap()),
            ("star", generators::star(300).unwrap()),
            ("ba", generators::barabasi_albert(300, 3, 2).unwrap()),
            ("caveman", generators::caveman(30, 10).unwrap()),
        ];
        for (name, g) in &graphs {
            for kappa in [2u32, 3, 4, 8] {
                for order in [
                    ProcessingOrder::ById,
                    ProcessingOrder::ByIdDesc,
                    ProcessingOrder::ByDegreeDesc,
                    ProcessingOrder::ByDegreeAsc,
                ] {
                    let p = params(0.5, kappa);
                    let (h, _) = build_centralized(g, &p, order);
                    let bound = p.size_bound(g.num_vertices());
                    assert!(
                        h.num_edges() as f64 <= bound + 1e-6,
                        "{name} kappa={kappa} order={order:?}: {} > {bound}",
                        h.num_edges()
                    );
                }
            }
        }
    }

    #[test]
    fn charging_discipline_verified_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::gnp_connected(200, 0.04, seed).unwrap();
            let p = params(0.5, 4);
            let h = build_centralized(&g, &p, ProcessingOrder::ById).0;
            let ledger = ChargeLedger::from_emulator(&h);
            ledger
                .verify(|phase| p.degree_cap(phase, 200))
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn emulator_distances_never_shorter_than_graph() {
        // d_G ≤ d_H: emulator edge weights are exact G-distances, so no pair
        // can get closer in H.
        let g = generators::gnp_connected(120, 0.06, 9).unwrap();
        let p = params(0.5, 3);
        let h = build_centralized(&g, &p, ProcessingOrder::ById).0;
        let apsp = usnae_graph::distance::Apsp::new(&g);
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 150, 4) {
            if let Some(dh) = h.distance(u, v) {
                assert!(dh >= apsp.distance(u, v).unwrap(), "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn stretch_certified_on_small_graphs() {
        // Exhaustive stretch check against the certified (α, β).
        let configs: Vec<(usnae_graph::Graph, u32)> = vec![
            (generators::gnp_connected(80, 0.08, 3).unwrap(), 2),
            (generators::grid2d(9, 9).unwrap(), 3),
            (generators::cycle(60).unwrap(), 4),
            (generators::hypercube(6).unwrap(), 3),
        ];
        for (g, kappa) in configs {
            let p = params(0.5, kappa);
            let (alpha, beta) = p.certified_stretch();
            let h = build_centralized(&g, &p, ProcessingOrder::ById).0;
            let apsp = usnae_graph::distance::Apsp::new(&g);
            let n = g.num_vertices();
            for u in 0..n {
                let dh = h.distances_from(u);
                for v in (u + 1)..n {
                    if let Some(dg) = apsp.distance(u, v) {
                        let dh = dh[v].unwrap_or_else(|| {
                            panic!("pair ({u},{v}) disconnected in H (kappa={kappa})")
                        });
                        assert!(
                            dh as f64 <= alpha * dg as f64 + beta + 1e-9,
                            "kappa={kappa} pair ({u},{v}): d_H={dh}, d_G={dg}, α={alpha}, β={beta}"
                        );
                        assert!(dh >= dg);
                    }
                }
            }
        }
    }

    #[test]
    fn partitions_sizes_obey_lemma_2_3() {
        // |P_i| ≤ n^(1 − (2^i − 1)/κ).
        let g = generators::gnp_connected(400, 0.08, 11).unwrap();
        let p = params(0.5, 4);
        let (_, trace) = build_centralized(&g, &p, ProcessingOrder::ById);
        let n = g.num_vertices() as f64;
        for (i, part) in trace.partitions.iter().enumerate().take(p.ell() + 1) {
            let bound = n.powf(1.0 - (2f64.powi(i as i32) - 1.0) / p.kappa() as f64);
            assert!(
                part.len() as f64 <= bound + 1e-6,
                "phase {i}: |P_i| = {} > {bound}",
                part.len()
            );
        }
    }

    #[test]
    fn superclusters_have_at_least_cap_plus_one_members() {
        // Lemma 2.1: every supercluster absorbs ≥ deg_i + 1 clusters of P_i.
        let g = generators::gnp_connected(300, 0.1, 13).unwrap();
        let p = params(0.5, 3);
        let (_, trace) = build_centralized(&g, &p, ProcessingOrder::ById);
        for i in 0..trace.partitions.len() - 1 {
            let cap = p.degree_cap(i, 300);
            let prev = &trace.partitions[i];
            let prev_map = prev.vertex_to_cluster(300);
            for sc in trace.partitions[i + 1].clusters() {
                let absorbed: std::collections::HashSet<usize> = sc
                    .members
                    .iter()
                    .map(|&v| prev_map[v].expect("member was clustered"))
                    .collect();
                assert!(
                    absorbed.len() > cap,
                    "phase {i}: supercluster absorbed only {} clusters (cap {cap})",
                    absorbed.len()
                );
            }
        }
    }

    #[test]
    fn complete_graph_collapses_in_one_phase() {
        let g = generators::complete_graph(50).unwrap();
        let p = params(0.5, 2);
        let (h, trace) = build_centralized(&g, &p, ProcessingOrder::ById);
        // First processed vertex superclusters everything.
        assert_eq!(trace.phases[0].num_superclusters, 1);
        assert_eq!(trace.partitions[1].len(), 1);
        assert_eq!(h.num_edges(), 49);
    }

    #[test]
    fn empty_like_graphs_handled() {
        // Isolated vertices: everyone unpopular with empty Γ; H empty.
        let g = usnae_graph::Graph::empty(5);
        let p = params(0.5, 2);
        let (h, trace) = build_centralized(&g, &p, ProcessingOrder::ById);
        assert_eq!(h.num_edges(), 0);
        assert_eq!(trace.phases[0].num_unclustered, 5);
    }

    #[test]
    fn single_vertex_graph() {
        let g = usnae_graph::Graph::empty(1);
        let p = params(0.5, 2);
        let h = build_centralized(&g, &p, ProcessingOrder::ById).0;
        assert_eq!(h.num_edges(), 0);
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        for seed in [3u64, 8] {
            let g = generators::gnp_connected(250, 0.05, seed).unwrap();
            let p = params(0.5, 4);
            for order in [ProcessingOrder::ById, ProcessingOrder::ByDegreeDesc] {
                let (h1, t1, timings) =
                    build_centralized_exec(&g, &p, order, &Engine::inproc(&g, 1));
                assert_eq!(timings.len(), t1.phases.len());
                for threads in [2usize, 4, 8] {
                    let (ht, tt, _) =
                        build_centralized_exec(&g, &p, order, &Engine::inproc(&g, threads));
                    assert_eq!(
                        h1.provenance(),
                        ht.provenance(),
                        "seed {seed} threads {threads}: edge stream diverged"
                    );
                    assert_eq!(t1.phases, tt.phases, "seed {seed} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn partitioned_build_is_byte_identical_to_shared_array() {
        use usnae_graph::partition::PartitionPolicy;
        let g = generators::gnp_connected(220, 0.05, 6).unwrap();
        let p = params(0.5, 4);
        let order = ProcessingOrder::ById;
        let (h1, t1, _) = build_centralized_exec(&g, &p, order, &Engine::inproc(&g, 1));
        for policy in PartitionPolicy::all() {
            for shards in [1usize, 2, 4, 7] {
                for threads in [1usize, 4] {
                    let cfg = crate::api::BuildConfig {
                        partition: policy,
                        shards,
                        threads,
                        ..crate::api::BuildConfig::default()
                    };
                    let engine = Engine::new(&g, &cfg);
                    let (ht, tt, _) = build_centralized_exec(&g, &p, order, &engine);
                    assert_eq!(
                        h1.provenance(),
                        ht.provenance(),
                        "policy {policy} shards {shards} threads {threads}"
                    );
                    assert_eq!(t1.phases, tt.phases, "policy {policy} shards {shards}");
                }
            }
        }
    }

    #[test]
    fn ultra_sparse_kappa_gives_near_linear_size() {
        // κ = log²n: |H| ≤ n^(1+1/κ) = n + o(n) (Corollary 2.15).
        let g = generators::gnp_connected(1024, 0.01, 17).unwrap();
        let kappa = 100; // log₂²(1024) = 100
        let p = params(0.5, kappa);
        let h = build_centralized(&g, &p, ProcessingOrder::ById).0;
        assert!(h.num_edges() as f64 <= p.size_bound(1024));
        assert!(h.num_edges() <= 1024 + 73); // n^(1+1/100) − n ≈ 72.6
    }
}
