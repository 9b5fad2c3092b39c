//! The superclustering-and-interconnection (SAI) phase loop shared by the
//! ruling-set-based constructions, and its deterministic ruling-set
//! carving.
//!
//! [`run_phases`] is the one loop behind the §3.3 fast centralized
//! simulation, the §4 spanner and the EM19 baseline. Each phase `i` runs
//! on its [`PhaseNumbers`]:
//!
//! 1. detect popular clusters (≥ `⌈deg_i⌉` neighboring centers within
//!    `δ_i`);
//! 2. compute a ruling set for the popular centers ([`ruling_set`]);
//! 3. grow a BFS ruling forest; every tree becomes one supercluster (no
//!    hub splitting is needed centrally — §3.3, §4);
//! 4. interconnect every unclustered center with *all* its neighboring
//!    centers (§3.1.3). The last phase only interconnects.
//!
//! The constructions differ in what an SAI edge is ([`EdgeForm`]): §3.3
//! adds a weighted emulator edge `(u, v, d_G(u, v))`, §4 adds the `u–v`
//! shortest path of `G`, so its output is a subgraph of `G`. That choice
//! is made only where steps 3 and 4 emit their edges. The schedule is the
//! other input: the fast simulation and EM19 run
//! [`DistributedParams::phase_numbers`](crate::params::DistributedParams::phase_numbers),
//! the §4 spanner [`SpannerParams::phase_numbers`](crate::params::SpannerParams::phase_numbers).
//!
//! The per-center scans (neighboring centers, and distances plus BFS-tree
//! parents for path recovery) come from the one bounded-BFS kernel in
//! `usnae_graph::par` through the [`Engine`], as sparse sorted lists
//! ([`usnae_graph::par::Exploration`]).

use crate::cluster::{Cluster, Partition};
use crate::emulator::{EdgeKind, EdgeProvenance, Emulator};
use crate::engine::Engine;
use crate::exec::{ChunkPolicy, PhaseClock, PhaseTiming};
use usnae_graph::bfs::multi_source_bfs;
use usnae_graph::partition::ShardView;
use usnae_graph::{par, AdjStorage, Dist, Graph, GraphCore, VertexId};

/// What one SAI edge between `u` and `v` at `G`-distance `d` becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeForm {
    /// A weighted emulator edge `(u, v, d)` (§3.3). Trace counters count
    /// insertions.
    Weighted,
    /// The shortest `u–v` path of `G`, edge by edge with unit weight (§4).
    /// Trace counters count newly created edges.
    Path,
}

/// The per-phase numbers one SAI phase runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseNumbers {
    /// Distance threshold `δ_i`.
    pub delta: Dist,
    /// Real-valued popularity threshold `deg_i`: a cluster with at least
    /// `⌈deg_i⌉` neighboring centers is popular.
    pub degree_threshold: f64,
    /// Depth of the BFS ruling forest.
    pub forest_depth: Dist,
}

/// Per-phase statistics of an SAI build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SaiPhaseTrace {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|` at phase entry.
    pub num_clusters: usize,
    /// Distance threshold `δ_i`.
    pub delta: Dist,
    /// Real-valued popularity threshold `deg_i`.
    pub degree_threshold: f64,
    /// Popular clusters detected (`|W_i|`).
    pub num_popular: usize,
    /// Ruling set size (`|S_i|` of Task 2).
    pub ruling_set_size: usize,
    /// Superclusters formed.
    pub num_superclusters: usize,
    /// Clusters left unclustered (`|U_i|`).
    pub num_unclustered: usize,
    /// Superclustering edges (see [`EdgeForm`] for what is counted; a
    /// path-form phase adds ≤ n by eq. 31).
    pub superclustering_edges: usize,
    /// Interconnection edges (see [`EdgeForm`] for what is counted).
    pub interconnection_edges: usize,
}

/// Build record of an SAI build.
#[derive(Debug, Clone)]
pub struct SaiTrace {
    /// One entry per phase.
    pub phases: Vec<SaiPhaseTrace>,
    /// `partitions[i]` is `P_i`; the final entry (after the last phase) is
    /// empty.
    pub partitions: Vec<Partition>,
}

/// Runs the SAI phase loop, one phase per entry of `phases`, emitting each
/// edge in `form`. The Task-1 scans, the ruling-set carving and the
/// path-recovery explorations run through `engine` (in-process fan-out or
/// a worker pool, byte-identical either way). Returns the output, its
/// trace and the per-phase timings.
pub fn run_phases<S: AdjStorage>(
    g: &GraphCore<S>,
    phases: &[PhaseNumbers],
    form: EdgeForm,
    engine: &Engine<'_, S>,
) -> (Emulator, SaiTrace, Vec<PhaseTiming>) {
    let n = g.num_vertices();
    let mut out = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut trace = SaiTrace {
        phases: Vec::with_capacity(phases.len()),
        partitions: vec![partition.clone()],
    };
    let mut clock = PhaseClock::new();
    for (i, numbers) in phases.iter().enumerate() {
        let last = i + 1 == phases.len();
        let (next, phase_trace) = clock.measure(i, || {
            let (next, phase_trace, explorations) =
                run_phase(g, engine, &mut out, &partition, i, numbers, form, last);
            ((next, phase_trace), explorations)
        });
        trace.phases.push(phase_trace);
        trace.partitions.push(next.clone());
        partition = next;
    }
    debug_assert!(partition.is_empty(), "the last partition must be empty");
    (out, trace, clock.into_phases())
}

#[allow(clippy::too_many_arguments)]
fn run_phase<S: AdjStorage>(
    g: &GraphCore<S>,
    engine: &Engine<'_, S>,
    out: &mut Emulator,
    partition: &Partition,
    i: usize,
    numbers: &PhaseNumbers,
    form: EdgeForm,
    last: bool,
) -> (Partition, SaiPhaseTrace, usize) {
    let n = g.num_vertices();
    let delta = numbers.delta;
    let cap = numbers.degree_threshold.ceil() as usize;
    let center_of = partition.center_index();
    let centers = partition.centers();
    let mut is_center = vec![false; n];
    for &c in &centers {
        is_center[c] = true;
    }

    let mut phase_trace = SaiPhaseTrace {
        phase: i,
        num_clusters: partition.len(),
        delta,
        degree_threshold: numbers.degree_threshold,
        ..SaiPhaseTrace::default()
    };

    // Task 1: popular-cluster detection. Each scan is a pure bounded BFS
    // of G, so the whole scan fans out through the engine, merged in
    // center order; it keeps only each ball's neighboring centers, sorted
    // by vertex id, so no phase holds a ball per center.
    let neighbor_lists = engine.centers_within(&centers, delta, &is_center);
    let popular: Vec<VertexId> = centers
        .iter()
        .zip(&neighbor_lists)
        .filter(|(_, nbrs)| nbrs.len() >= cap)
        .map(|(&rc, _)| rc)
        .collect();
    phase_trace.num_popular = popular.len();
    debug_assert!(
        !last || popular.is_empty(),
        "no popular clusters in the last phase (eqs. 17, 37)"
    );

    let mut superclustered = vec![false; n]; // indexed by center vertex
    let mut next_clusters: Vec<Cluster> = Vec::new();

    if !last && !popular.is_empty() {
        // Task 2: ruling set for the popular centers, its ball carving
        // sharded over the same engine (byte-identical to sequential).
        let rulers = engine.ruling_set(&popular, delta);
        phase_trace.ruling_set_size = rulers.len();

        // Task 3: BFS ruling forest; one supercluster per tree.
        let forest = multi_source_bfs(g, &rulers, numbers.forest_depth);
        let mut members_of: std::collections::HashMap<VertexId, Vec<usize>> =
            rulers.iter().map(|&r| (r, vec![center_of[&r]])).collect();
        for &rc in &centers {
            let Some(root) = forest.root[rc] else {
                continue;
            };
            superclustered[rc] = true;
            if rc == root {
                continue;
            }
            let prov = provenance(i, EdgeKind::Superclustering, rc);
            phase_trace.superclustering_edges += match form {
                EdgeForm::Weighted => {
                    out.add_edge(root, rc, forest.dist[rc], prov);
                    1
                }
                // The forest is a subgraph of G: add the tree path rc→root.
                EdgeForm::Path => add_path(
                    out,
                    &forest
                        .path_to_root(rc)
                        .expect("rooted vertices have tree paths"),
                    prov,
                ),
            };
            members_of
                .get_mut(&root)
                .expect("every root was seeded")
                .push(center_of[&rc]);
        }
        for &root in &rulers {
            let mut members = Vec::new();
            for &idx in &members_of[&root] {
                members.extend_from_slice(&partition.cluster(idx).members);
            }
            next_clusters.push(Cluster {
                center: root,
                members,
            });
        }
        phase_trace.num_superclusters = next_clusters.len();
    }

    // Interconnection (§3.1.3): every unclustered center connects to all
    // its neighboring centers (in the last phase, that is every center).
    let mut unclustered: Vec<(VertexId, &[(VertexId, Dist)])> = Vec::new();
    for (&rc, nbrs) in centers.iter().zip(&neighbor_lists) {
        if superclustered[rc] {
            continue;
        }
        phase_trace.num_unclustered += 1;
        debug_assert!(
            nbrs.len() < cap,
            "U_i clusters are unpopular (Lemma 3.4): {} >= {cap}",
            nbrs.len()
        );
        if !nbrs.is_empty() {
            unclustered.push((rc, nbrs));
        }
    }
    let reexplored = match form {
        EdgeForm::Weighted => {
            for &(rc, nbrs) in &unclustered {
                let prov = provenance(i, EdgeKind::Interconnection, rc);
                for &(v, d) in nbrs {
                    out.add_edge(rc, v, d, prov);
                    phase_trace.interconnection_edges += 1;
                }
            }
            0
        }
        // Only a path needs BFS-tree parents, so only the path form
        // explores the unclustered centers again.
        EdgeForm::Path => {
            let sources: Vec<VertexId> = unclustered.iter().map(|&(rc, _)| rc).collect();
            let explorations = engine.explorations(&sources, delta);
            for (&(rc, nbrs), expl) in unclustered.iter().zip(&explorations) {
                let prov = provenance(i, EdgeKind::Interconnection, rc);
                for &(v, _) in nbrs {
                    let path = expl
                        .path_to(v)
                        .expect("neighbor was reached by this exploration");
                    phase_trace.interconnection_edges += add_path(out, &path, prov);
                }
            }
            sources.len()
        }
    };

    (
        Partition::from_clusters(next_clusters),
        phase_trace,
        centers.len() + reexplored,
    )
}

fn provenance(phase: usize, kind: EdgeKind, charged_to: VertexId) -> EdgeProvenance {
    EdgeProvenance {
        phase,
        kind,
        charged_to,
    }
}

/// Adds every edge of `path` with unit weight; returns the number of *new*
/// edges created.
fn add_path(out: &mut Emulator, path: &[VertexId], prov: EdgeProvenance) -> usize {
    path.windows(2)
        .filter(|w| out.add_edge(w[0], w[1], 1, prov))
        .count()
}

/// Deterministic greedy min-id ball carving (substitution S1): a ruling set
/// for `w` with pairwise separation ≥ `2δ + 1` and domination ≤ `2δ`.
pub fn ruling_set(g: &Graph, w: &[VertexId], delta: Dist) -> Vec<VertexId> {
    ruling_set_par(g, w, delta, 1)
}

/// [`ruling_set`] with the ball carving sharded over `threads` via the
/// `usnae_graph::par` fan-out — **byte-identical** to the sequential run
/// for every thread count.
///
/// The greedy selection itself is order-dependent (a candidate is skipped
/// iff an earlier-chosen ball already dominates it), so only the *balls*
/// parallelize: a chunk of still-undominated candidates is prefetched
/// concurrently, then consumed strictly in ascending-id order, re-checking
/// each candidate's domination status at consumption time. A ball whose
/// candidate got dominated within its own chunk is discarded — wasted work
/// only, never a different ruling set. The chunk size adapts via
/// [`ChunkPolicy`] (pinned to 1 at `threads == 1`: exactly the historical
/// lazy loop). Generic over [`ShardView`]: the carving reads local CSR
/// shards or the shared array with identical output.
pub fn ruling_set_par<V: ShardView + ?Sized>(
    g: &V,
    w: &[VertexId],
    delta: Dist,
    threads: usize,
) -> Vec<VertexId> {
    ruling_set_impl(g.num_vertices(), w, delta, threads, |batch, depth| {
        par::balls(g, batch, depth, threads)
    })
}

/// The carving loop itself, parameterized over the ball provider so the
/// same greedy selection runs against the in-process fan-out
/// ([`ruling_set_par`]) or a worker pool (`Engine::ruling_set`) with
/// byte-identical output — the provider only changes *where* the balls
/// are computed, never their contents.
pub(crate) fn ruling_set_impl(
    n: usize,
    w: &[VertexId],
    delta: Dist,
    threads: usize,
    mut balls_of: impl FnMut(&[VertexId], Dist) -> Vec<Vec<(VertexId, Dist)>>,
) -> Vec<VertexId> {
    let mut sorted = w.to_vec();
    sorted.sort_unstable();
    let two_delta = delta.saturating_mul(2);
    let mut dominated = vec![false; n];
    let mut chosen = Vec::new();
    let mut policy = ChunkPolicy::new(threads);
    let mut next = 0;
    while next < sorted.len() {
        // Prefetch balls for the next chunk of currently-undominated
        // candidates; earlier chunks' carving already pruned most of them.
        let mut batch: Vec<VertexId> = Vec::new();
        while next < sorted.len() && batch.len() < policy.chunk() {
            let cand = sorted[next];
            next += 1;
            if !dominated[cand] {
                batch.push(cand);
            }
        }
        if batch.is_empty() {
            continue;
        }
        // Sparse balls (reused per-shard scratch) keep the in-flight memory
        // proportional to the reached vertices, not chunk × n.
        let balls = balls_of(&batch, two_delta);
        let mut used = 0;
        for (&cand, ball) in batch.iter().zip(&balls) {
            if dominated[cand] {
                continue; // carved away by an earlier ball in this chunk
            }
            used += 1;
            chosen.push(cand);
            for &(v, _) in ball {
                dominated[v] = true;
            }
        }
        policy.record(batch.len(), used);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;
    use usnae_graph::par::Exploration;

    fn explore<V: ShardView + ?Sized>(g: &V, source: VertexId, depth: Dist) -> Exploration {
        par::BallScratch::new(g.num_vertices()).explore(g, source, depth)
    }

    #[test]
    fn exploration_matches_bfs() {
        let g = generators::grid2d(6, 6).unwrap();
        let e = explore(&g, 0, 4);
        let d = usnae_graph::bfs::bfs_bounded(&g, 0, 4);
        let dense: Vec<(VertexId, Dist)> = d
            .iter()
            .enumerate()
            .filter_map(|(v, d)| d.map(|d| (v, d)))
            .collect();
        let sparse: Vec<(VertexId, Dist)> = e.settled().iter().map(|&(v, d, _)| (v, d)).collect();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn path_reconstruction_is_shortest() {
        let g = generators::grid2d(5, 5).unwrap();
        let e = explore(&g, 0, 10);
        let p = e.path_to(24).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&24));
        assert_eq!(p.len() as u64 - 1, e.settled()[24].1);
        // Consecutive vertices are adjacent.
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn path_to_unreached_is_none() {
        let g = generators::path(10).unwrap();
        let e = explore(&g, 0, 3);
        assert!(e.path_to(7).is_none());
        assert!(e.path_to(3).is_some());
    }

    #[test]
    fn centers_found_filters() {
        let g = generators::path(6).unwrap();
        let mut is_center = vec![false; 6];
        is_center[0] = true;
        is_center[2] = true;
        is_center[5] = true;
        let found = par::BallScratch::new(6).centers_within(&g, 0, 3, &is_center);
        assert_eq!(found, vec![(2, 2)]); // 5 beyond depth; 0 is the source
    }

    #[test]
    fn ruling_set_on_cycle() {
        let g = generators::cycle(30).unwrap();
        let w: Vec<usize> = (0..30).collect();
        let delta = 2;
        let rulers = ruling_set(&g, &w, delta);
        // Separation > 2δ = 4 on a cycle of 30 → at most 6 rulers; ≥ 30/5.
        assert!(rulers.len() <= 6 && rulers.len() >= 5, "{rulers:?}");
        assert_eq!(rulers[0], 0); // min id always chosen first
    }

    #[test]
    fn ruling_set_empty_input() {
        let g = generators::path(4).unwrap();
        assert!(ruling_set(&g, &[], 3).is_empty());
        for threads in [1usize, 4] {
            assert!(ruling_set_par(&g, &[], 3, threads).is_empty());
        }
    }

    #[test]
    fn parallel_carving_is_byte_identical_to_sequential() {
        for seed in [1u64, 5, 12] {
            let g = generators::gnp_connected(240, 0.04, seed).unwrap();
            for delta in [1u64, 2, 4] {
                let w: Vec<usize> = (0..240).step_by(2).collect();
                let sequential = ruling_set(&g, &w, delta);
                for threads in [2usize, 4, 8] {
                    assert_eq!(
                        ruling_set_par(&g, &w, delta, threads),
                        sequential,
                        "seed={seed} delta={delta} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_carving_handles_duplicate_candidates() {
        let g = generators::cycle(40).unwrap();
        let mut w: Vec<usize> = (0..40).collect();
        w.extend(0..40); // duplicates must not double-select
        let sequential = ruling_set(&g, &w, 2);
        assert_eq!(ruling_set_par(&g, &w, 2, 4), sequential);
        let unique: std::collections::HashSet<_> = sequential.iter().collect();
        assert_eq!(unique.len(), sequential.len());
    }
}
