//! Deterministic parallel execution substrate for the per-center
//! exploration phases.
//!
//! The dominant cost of every SAI construction is phase 0: one bounded BFS
//! per cluster center, each a pure function of `G` — embarrassingly
//! parallel. This module provides a work-stealing-free fan-out built only
//! on [`std::thread::scope`] (the repository is dependency-free):
//!
//! * [`shard_ranges`] splits an index range into contiguous, disjoint
//!   shards that cover every index exactly once;
//! * [`map_ranges`] / [`map_indexed`] fan a pure map over those shards and
//!   merge per-shard results **in shard order**, so the merged vector is
//!   identical for every thread count — including 1;
//! * [`BallScratch`] runs the one bounded FIFO BFS every construction
//!   explores with, over reusable per-shard scratch; [`explorations`] fans
//!   it out per source and keeps each source's settled
//!   `(vertex, distance, parent)` list as an [`Exploration`], [`balls`]
//!   is the same search with the parents dropped, and [`centers_within`]
//!   keeps only the marked vertices of each ball. Both return their lists
//!   sorted by vertex id (the iteration order the sequential constructions
//!   used when scanning a dense distance array), and hold state
//!   proportional to the explored balls, never `O(n)` per source.
//!
//! Determinism contract: for any `threads >= 1`, every function here
//! returns *bit-identical* output to its `threads == 1` run. The parity
//! suite (`tests/parallel_determinism.rs` at the workspace root) holds the
//! constructions built on top of this module to the same standard.

use crate::graph::VertexId;
use crate::partition::ShardView;
use crate::{Dist, INF};
use std::ops::Range;

/// Splits `0..len` into at most `shards` contiguous ranges of near-equal
/// length, covering every index exactly once. The first `len % shards`
/// ranges are one element longer; empty ranges are never returned.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / shards;
    let rem = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Applies `f` to each shard of `0..len` and concatenates the per-shard
/// vectors in shard order.
///
/// With `threads <= 1` (or a single shard) this is exactly `f(0..len)` on
/// the calling thread — no spawn, no overhead. With more, each shard runs
/// on its own scoped thread; because shards are contiguous and results are
/// merged in shard order, the output is independent of the thread count.
///
/// `f` sees the *global* index range of its shard, so workers can address
/// shared read-only slices directly and allocate per-shard scratch once.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn map_ranges<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let shards = shard_ranges(len, threads);
    if shards.len() <= 1 {
        return f(0..len);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|r| scope.spawn(move || f(r)))
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("parallel shard worker panicked"));
        }
        out
    })
}

/// Index-wise parallel map: `out[i] == f(i)` for all `i in 0..len`,
/// deterministically, for any `threads >= 1`.
pub fn map_indexed<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_ranges(threads, len, |r| r.map(&f).collect())
}

/// One bounded-BFS exploration: its source plus every settled vertex with
/// its distance and FIFO first-discovery BFS-tree parent, **sorted by
/// vertex id** — the order a scan of a dense distance array visits them.
///
/// The state is proportional to the explored ball, never to `n`: the §4
/// pipeline holds one per unclustered center at once for path recovery,
/// where dense per-source arrays would cost `O(n)` each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    source: VertexId,
    settled: Vec<(VertexId, Dist, Option<VertexId>)>,
}

impl Exploration {
    /// An exploration from its settled list, which must be strictly
    /// ascending by vertex id (path recovery binary-searches it).
    ///
    /// # Panics
    ///
    /// When `settled` is not strictly ascending by vertex id.
    pub fn from_sorted(source: VertexId, settled: Vec<(VertexId, Dist, Option<VertexId>)>) -> Self {
        assert!(
            settled.windows(2).all(|w| w[0].0 < w[1].0),
            "settled list of source {source} is not ascending by vertex id"
        );
        Exploration { source, settled }
    }

    /// Origin of the exploration.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// `(vertex, distance, parent)` ascending by vertex; the source has
    /// distance 0 and no parent.
    pub fn settled(&self) -> &[(VertexId, Dist, Option<VertexId>)] {
        &self.settled
    }

    fn entry(&self, v: VertexId) -> Option<&(VertexId, Dist, Option<VertexId>)> {
        self.settled
            .binary_search_by_key(&v, |&(u, _, _)| u)
            .ok()
            .map(|i| &self.settled[i])
    }

    /// Shortest path from `source` to `v` (inclusive), or `None` if `v` was
    /// not reached. Each hop finds its parent by binary search.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let mut entry = self.entry(v)?;
        let mut path = vec![v];
        while let Some(p) = entry.2 {
            path.push(p);
            entry = self
                .entry(p)
                .expect("parents of settled vertices are settled");
        }
        debug_assert_eq!(*path.last().expect("path nonempty"), self.source);
        path.reverse();
        Some(path)
    }
}

/// Reusable bounded-BFS scratch: one dense distance array, reset sparsely
/// (only the vertices the last search reached), so a shard of many
/// small-ball searches pays the `O(n)` initialization once.
#[derive(Debug, Clone)]
pub struct BallScratch {
    dist: Vec<Dist>,
    /// FIFO queue of the current search; after it, every reached vertex.
    queue: Vec<VertexId>,
}

impl BallScratch {
    /// Scratch for searches over an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        BallScratch {
            dist: vec![INF; n],
            queue: Vec::new(),
        }
    }

    /// The one bounded-BFS loop: FIFO from `source`, expanding vertices
    /// closer than `depth`, calling `settle(v, dist, parent)` once per
    /// reached vertex at its discovery (the source first, with no parent).
    ///
    /// Generic over [`ShardView`], so the same search runs over the shared
    /// adjacency array or over per-worker CSR shards (identical output —
    /// the views are pointwise identical by contract).
    fn search<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        source: VertexId,
        depth: Dist,
        mut settle: impl FnMut(VertexId, Dist, Option<VertexId>),
    ) {
        self.dist[source] = 0;
        self.queue.push(source);
        settle(source, 0, None);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u];
            if du == depth {
                continue;
            }
            for &v in g.neighbors(u) {
                if self.dist[v] == INF {
                    self.dist[v] = du + 1;
                    settle(v, du + 1, Some(u));
                    self.queue.push(v);
                }
            }
        }
        for &v in &self.queue {
            self.dist[v] = INF;
        }
        self.queue.clear();
    }

    /// Bounded BFS from `source` to depth `depth`, returning the reached
    /// vertices (including `source` at distance 0) **sorted by vertex id**
    /// — the order a scan of a dense distance array visits them, which is
    /// what keeps the constructions' edge-emission order identical to
    /// their historical dense-array loops.
    pub fn ball_sorted<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        source: VertexId,
        depth: Dist,
    ) -> Vec<(VertexId, Dist)> {
        let mut reached = Vec::new();
        self.search(g, source, depth, |v, d, _| reached.push((v, d)));
        reached.sort_unstable_by_key(|&(v, _)| v);
        reached
    }

    /// The vertices `is_center` marks within `depth` of `source`, the source
    /// excluded, with their distances, sorted by vertex id: a center's
    /// neighboring centers (Task 1), without keeping the rest of its ball.
    pub fn centers_within<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        source: VertexId,
        depth: Dist,
        is_center: &[bool],
    ) -> Vec<(VertexId, Dist)> {
        let mut found = Vec::new();
        self.search(g, source, depth, |v, d, _| {
            if v != source && is_center[v] {
                found.push((v, d));
            }
        });
        found.sort_unstable_by_key(|&(v, _)| v);
        found
    }

    /// [`ball_sorted`](Self::ball_sorted) with the BFS-tree parents kept:
    /// the full [`Exploration`] from `source`.
    pub fn explore<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        source: VertexId,
        depth: Dist,
    ) -> Exploration {
        let mut settled = Vec::new();
        self.search(g, source, depth, |v, d, p| settled.push((v, d, p)));
        settled.sort_unstable_by_key(|&(v, _, _)| v);
        Exploration { source, settled }
    }
}

/// Applies `f` to every source with one [`BallScratch`] per shard, merged
/// in source order.
fn per_source<V, T, F>(g: &V, sources: &[VertexId], threads: usize, f: F) -> Vec<T>
where
    V: ShardView + ?Sized,
    T: Send,
    F: Fn(&mut BallScratch, VertexId) -> T + Sync,
{
    map_ranges(threads, sources.len(), |range| {
        let mut scratch = BallScratch::new(g.num_vertices());
        range.map(|i| f(&mut scratch, sources[i])).collect()
    })
}

/// One bounded BFS per source, fanned out over `threads` shards; `out[i]`
/// is the ball of `sources[i]` sorted by vertex id (see
/// [`BallScratch::ball_sorted`]). Identical output for every thread count
/// and for every [`ShardView`] layout (shared array or CSR shards).
pub fn balls<V: ShardView + ?Sized>(
    g: &V,
    sources: &[VertexId],
    depth: Dist,
    threads: usize,
) -> Vec<Vec<(VertexId, Dist)>> {
    per_source(g, sources, threads, |scratch, s| {
        scratch.ball_sorted(g, s, depth)
    })
}

/// [`BallScratch::centers_within`] per source: `out[i]` lists the centers
/// within `depth` of `sources[i]`, under the [`balls`] determinism
/// contract.
pub fn centers_within<V: ShardView + ?Sized>(
    g: &V,
    sources: &[VertexId],
    depth: Dist,
    is_center: &[bool],
    threads: usize,
) -> Vec<Vec<(VertexId, Dist)>> {
    per_source(g, sources, threads, |scratch, s| {
        scratch.centers_within(g, s, depth, is_center)
    })
}

/// [`balls`] with parents: `out[i]` is the [`Exploration`] of
/// `sources[i]`, under the same determinism contract.
pub fn explorations<V: ShardView + ?Sized>(
    g: &V,
    sources: &[VertexId],
    depth: Dist,
    threads: usize,
) -> Vec<Exploration> {
    per_source(g, sources, threads, |scratch, s| {
        scratch.explore(g, s, depth)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::generators;

    #[test]
    fn shard_ranges_cover_every_index_exactly_once() {
        for len in [0usize, 1, 2, 7, 64, 1000, 1001] {
            for shards in [1usize, 2, 3, 4, 8, 13, 2000] {
                let ranges = shard_ranges(len, shards);
                let mut seen = vec![0usize; len];
                let mut prev_end = 0;
                for r in &ranges {
                    assert!(!r.is_empty(), "len={len} shards={shards}: empty shard");
                    assert_eq!(r.start, prev_end, "shards must be contiguous");
                    prev_end = r.end;
                    for i in r.clone() {
                        seen[i] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "len={len} shards={shards}: index covered != once"
                );
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn map_indexed_merge_order_is_stable_across_thread_counts() {
        let reference: Vec<usize> = (0..997).map(|i| i * i % 101).collect();
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let got = map_indexed(threads, 997, |i| i * i % 101);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn map_ranges_sees_global_indices() {
        let data: Vec<u64> = (0..500).map(|i| i as u64 * 3).collect();
        for threads in [1usize, 4, 7] {
            let got = map_ranges(threads, data.len(), |r| {
                r.map(|i| data[i] + 1).collect::<Vec<_>>()
            });
            let want: Vec<u64> = data.iter().map(|&x| x + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    /// The dense FIFO BFS: `O(n)` distance and parent arrays per source,
    /// first-discovery parents, scanned in vertex order — the oracle
    /// [`BallScratch::explore`] must agree with.
    fn dense_exploration(g: &crate::Graph, source: VertexId, depth: Dist) -> Exploration {
        let n = g.num_vertices();
        let mut dist = vec![None; n];
        let mut parent = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du: Dist = dist[u].expect("queued vertices have distances");
            if du == depth {
                continue;
            }
            for &v in g.neighbors(u) {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        Exploration {
            source,
            settled: (0..n)
                .filter_map(|v| dist[v].map(|d| (v, d, parent[v])))
                .collect(),
        }
    }

    #[test]
    fn ball_sorted_matches_dense_bounded_bfs() {
        let g = generators::gnp_connected(200, 0.04, 11).unwrap();
        let is_center: Vec<bool> = (0..200).map(|v| v % 3 == 0).collect();
        let mut scratch = BallScratch::new(200);
        for source in [0usize, 7, 199] {
            for depth in [0u64, 1, 2, 5, INF] {
                let want = dense_exploration(&g, source, depth);
                assert_eq!(scratch.explore(&g, source, depth), want);
                let ball: Vec<(VertexId, Dist)> =
                    want.settled.iter().map(|&(v, d, _)| (v, d)).collect();
                assert_eq!(scratch.ball_sorted(&g, source, depth), ball);
                let marked: Vec<(VertexId, Dist)> = ball
                    .into_iter()
                    .filter(|&(v, _)| v != source && is_center[v])
                    .collect();
                assert_eq!(
                    scratch.centers_within(&g, source, depth, &is_center),
                    marked,
                    "source={source} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_leaves_no_residue() {
        let g = generators::grid2d(12, 12).unwrap();
        let mut scratch = BallScratch::new(144);
        let first = scratch.ball_sorted(&g, 0, 4);
        let _middle = scratch.ball_sorted(&g, 77, 6);
        let again = scratch.ball_sorted(&g, 0, 4);
        assert_eq!(first, again);
    }

    #[test]
    fn balls_fan_out_agrees_with_sequential_loop_on_seeded_graphs() {
        for seed in [1u64, 5, 9] {
            let g = generators::gnp_connected(150, 0.05, seed).unwrap();
            let sources: Vec<VertexId> = (0..g.num_vertices()).collect();
            let sequential = balls(&g, &sources, 3, 1);
            for threads in [2usize, 4, 8] {
                let parallel = balls(&g, &sources, 3, threads);
                assert_eq!(sequential, parallel, "seed={seed} threads={threads}");
            }
            // And the sequential loop itself matches the plain dense BFS.
            for (&s, ball) in sources.iter().zip(&sequential) {
                let dense: Vec<(VertexId, Dist)> = bfs::bfs_bounded(&g, s, 3)
                    .iter()
                    .enumerate()
                    .filter_map(|(v, d)| d.map(|d| (v, d)))
                    .collect();
                assert_eq!(*ball, dense, "seed={seed} source={s}");
            }
        }
    }

    #[test]
    fn balls_over_csr_shards_match_the_shared_array() {
        use crate::partition::{PartitionPolicy, ShardedCsr};
        let g = generators::gnp_connected(160, 0.05, 7).unwrap();
        let sources: Vec<VertexId> = (0..g.num_vertices()).step_by(3).collect();
        let shared = balls(&g, &sources, 4, 2);
        for policy in PartitionPolicy::all() {
            for shards in [1usize, 2, 4, 7] {
                let layout = ShardedCsr::build(&g, policy, shards);
                assert_eq!(
                    balls(&layout, &sources, 4, 2),
                    shared,
                    "policy={policy} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let g = generators::path(4).unwrap();
        assert!(balls(&g, &[], 3, 4).is_empty());
        assert!(map_indexed(4, 0, |i| i).is_empty());
        assert!(shard_ranges(0, 4).is_empty());
    }
}
