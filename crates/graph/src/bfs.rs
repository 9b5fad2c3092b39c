//! Breadth-first searches over the unweighted input graph `G`.
//!
//! The SAI constructions need several flavors:
//!
//! * plain single-source BFS ([`bfs`]) for ground-truth distances;
//! * depth-bounded BFS ([`bfs_bounded`]) — the "Dijkstra exploration to depth
//!   `δ_i`" of Algorithm 1 (on an unweighted graph Dijkstra *is* BFS), in
//!   its dense reference form; the constructions run the sparse
//!   [`crate::par::BallScratch`] kernel;
//! * multi-source BFS ([`multi_source_bfs`]) that also reports the closest
//!   source and parent pointers — the BFS ruling forest of §3.1.2 Task 3.

use crate::graph::{GraphCore, VertexId};
use crate::storage::AdjStorage;
use crate::{Dist, INF};
use std::collections::VecDeque;

/// Single-source BFS; `None` marks unreachable vertices.
///
/// # Example
///
/// ```
/// use usnae_graph::{Graph, bfs::bfs};
///
/// # fn main() -> Result<(), usnae_graph::GraphError> {
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)])?;
/// let d = bfs(&g, 0);
/// assert_eq!(d[2], Some(2));
/// assert_eq!(d[3], None);
/// # Ok(())
/// # }
/// ```
pub fn bfs<S: AdjStorage>(g: &GraphCore<S>, source: VertexId) -> Vec<Option<Dist>> {
    dense_bfs(g, source, INF)
}

/// BFS truncated at `depth`: vertices farther than `depth` stay `None`.
///
/// This dense form allocates `O(n)` per call; the constructions explore
/// through [`crate::par::BallScratch`] instead, and tests use this as the
/// reference it must agree with.
pub fn bfs_bounded<S: AdjStorage>(
    g: &GraphCore<S>,
    source: VertexId,
    depth: Dist,
) -> Vec<Option<Dist>> {
    dense_bfs(g, source, depth)
}

fn dense_bfs<S: AdjStorage>(g: &GraphCore<S>, source: VertexId, depth: Dist) -> Vec<Option<Dist>> {
    let mut dist = vec![None; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[source] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued vertices have distances");
        if du == depth {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Result of a multi-source BFS: per-vertex distance, closest source, and
/// BFS-tree parent (`None` at sources and unreached vertices).
#[derive(Debug, Clone)]
pub struct Forest {
    /// Distance to the closest source (`INF` when unreached).
    pub dist: Vec<Dist>,
    /// Closest source (ties broken toward the smaller source id).
    pub root: Vec<Option<VertexId>>,
    /// BFS-tree parent pointers.
    pub parent: Vec<Option<VertexId>>,
}

impl Forest {
    /// The path from `v` up to its root, inclusive; `None` if `v` unreached.
    pub fn path_to_root(&self, v: VertexId) -> Option<Vec<VertexId>> {
        self.root[v]?;
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        Some(path)
    }

    /// Tree depth of `v` below its root (equals `dist[v]`), `None` if unreached.
    pub fn depth(&self, v: VertexId) -> Option<Dist> {
        if self.root[v].is_some() {
            Some(self.dist[v])
        } else {
            None
        }
    }
}

/// Multi-source BFS to depth `depth`, producing a ruling forest.
///
/// Each reached vertex records the closest source (smallest id on ties) and a
/// parent on a shortest path toward it. This mirrors the deterministic
/// distributed BFS forest of the paper's Task 3: explorations from all
/// sources start simultaneously and a vertex joins the tree of the first
/// exploration to reach it.
pub fn multi_source_bfs<S: AdjStorage>(
    g: &GraphCore<S>,
    sources: &[VertexId],
    depth: Dist,
) -> Forest {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut root = vec![None; n];
    let mut parent = vec![None; n];
    let mut queue = VecDeque::new();
    let mut sorted: Vec<VertexId> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &s in &sorted {
        dist[s] = 0;
        root[s] = Some(s);
        queue.push_back(s);
    }
    while let Some(u) = queue.pop_front() {
        if dist[u] == depth {
            continue;
        }
        for &v in g.neighbors(u) {
            if root[v].is_none() {
                dist[v] = dist[u] + 1;
                root[v] = root[u];
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    Forest { dist, root, parent }
}

/// Eccentricity of `source` (max distance to a reachable vertex).
pub fn eccentricity<S: AdjStorage>(g: &GraphCore<S>, source: VertexId) -> Dist {
    bfs(g, source).into_iter().flatten().max().unwrap_or(0)
}

/// Lower bound on the diameter via a double-sweep BFS heuristic; exact on
/// trees, and a cheap scale estimate for workload reporting.
pub fn double_sweep_diameter<S: AdjStorage>(g: &GraphCore<S>, start: VertexId) -> Dist {
    let d1 = bfs(g, start);
    let far = d1
        .iter()
        .enumerate()
        .filter_map(|(v, d)| d.map(|d| (d, v)))
        .max()
        .map(|(_, v)| v)
        .unwrap_or(start);
    eccentricity(g, far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(6);
        let d = bfs(&g, 0);
        for (v, &dist) in d.iter().enumerate() {
            assert_eq!(dist, Some(v as Dist));
        }
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let d = bfs(&g, 0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn bounded_bfs_truncates() {
        let g = path_graph(10);
        let d = bfs_bounded(&g, 0, 3);
        assert_eq!(d[3], Some(3));
        assert_eq!(d[4], None);
    }

    #[test]
    fn multi_source_ties_break_to_smaller_source() {
        // 0 - 1 - 2 - 3 - 4, sources {0, 4}: vertex 2 equidistant.
        let g = path_graph(5);
        let f = multi_source_bfs(&g, &[4, 0], INF);
        assert_eq!(f.root[2], Some(0));
        assert_eq!(f.dist[2], 2);
        assert_eq!(f.root[3], Some(4));
    }

    #[test]
    fn forest_paths_walk_to_root() {
        let g = path_graph(6);
        let f = multi_source_bfs(&g, &[0], INF);
        assert_eq!(f.path_to_root(3).unwrap(), vec![3, 2, 1, 0]);
        assert_eq!(f.depth(3), Some(3));
    }

    #[test]
    fn forest_respects_depth_bound() {
        let g = path_graph(10);
        let f = multi_source_bfs(&g, &[0], 2);
        assert_eq!(f.root[2], Some(0));
        assert_eq!(f.root[3], None);
        assert_eq!(f.path_to_root(3), None);
    }

    #[test]
    fn eccentricity_of_path_end() {
        let g = path_graph(7);
        assert_eq!(eccentricity(&g, 0), 6);
        assert_eq!(eccentricity(&g, 3), 3);
    }

    #[test]
    fn double_sweep_exact_on_path() {
        let g = path_graph(9);
        assert_eq!(double_sweep_diameter(&g, 4), 8);
    }

    #[test]
    fn multi_source_on_grid_covers_everything() {
        let g = generators::grid2d(8, 8).unwrap();
        let f = multi_source_bfs(&g, &[0, 63], INF);
        assert!(f.root.iter().all(|r| r.is_some()));
    }
}
