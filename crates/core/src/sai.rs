//! Shared primitives of the ruling-set-based SAI constructions (§3.3, §4):
//! deterministic ruling-set carving over sparse balls.
//!
//! The per-center scans themselves (neighboring centers, and distances
//! plus BFS-tree parents for path recovery) come from the one bounded-BFS
//! kernel in `usnae_graph::par`, as sparse sorted lists
//! ([`usnae_graph::par::Exploration`]).

use crate::exec::ChunkPolicy;
use usnae_graph::partition::ShardView;
use usnae_graph::{par, Dist, Graph, VertexId};

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
