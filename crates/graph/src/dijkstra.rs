//! The workspace's one single-source shortest-path kernel.
//!
//! Every weighted distance the workspace computes runs through
//! [`shortest_paths`]: the verification side of the reproduction
//! (`d_H(u, v)` must sit in `[d_G(u, v), (1+ε)·d_G(u, v) + β]`, over a
//! [`WeightedGraph`] and `Emulator::distances_from`) and every query
//! engine (over the frozen emulator CSR `usnae_core::EmuCsr`). The kernel
//! is a binary-heap Dijkstra, generic over how neighbours are read
//! ([`WeightedAdjacency`]), with an optional target at which it stops.
//!
//! Path lengths saturate at [`INF`]: a path whose length reaches `INF`
//! leaves its end unreachable, so a stored weight of `u64::MAX` can never
//! wrap around into a short distance.

use crate::graph::VertexId;
use crate::weighted::WeightedGraph;
use crate::{Dist, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the kernel reads a weighted graph: its vertex count and, per
/// vertex, every `(neighbor, weight)` pair.
pub trait WeightedAdjacency {
    /// Number of vertices; ids are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;
    /// Calls `f(neighbor, weight)` once per edge at `v`.
    fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId, Dist));
}

impl WeightedAdjacency for WeightedGraph {
    fn num_vertices(&self) -> usize {
        WeightedGraph::num_vertices(self)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Dist)) {
        for (u, w) in self.neighbors(v) {
            f(u, w);
        }
    }
}

/// Dijkstra from `source`; `None` marks unreachable vertices.
///
/// With `Some(target)` the search stops as soon as `target` is settled:
/// `dist[target]` and every distance below it are then final, while
/// vertices not yet settled may hold an upper bound or `None`.
pub fn shortest_paths<G: WeightedAdjacency>(
    g: &G,
    source: VertexId,
    target: Option<VertexId>,
) -> Vec<Option<Dist>> {
    let mut dist: Vec<Option<Dist>> = vec![None; g.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[source] = Some(0);
    heap.push(Reverse((0 as Dist, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist[u] != Some(d) {
            continue; // stale entry: `u` was settled at a shorter distance
        }
        if Some(u) == target {
            break;
        }
        g.for_each_neighbor(u, |v, w| {
            let nd = d.saturating_add(w);
            if nd != INF && dist[v].is_none_or(|cur| nd < cur) {
                dist[v] = Some(nd);
                heap.push(Reverse((nd, v)));
            }
        });
    }
    dist
}

/// Single-source distances; `None` marks unreachable vertices.
///
/// # Example
///
/// ```
/// use usnae_graph::{WeightedGraph, dijkstra::dijkstra};
///
/// let mut h = WeightedGraph::new(3);
/// h.add_edge(0, 1, 5);
/// h.add_edge(1, 2, 7);
/// let d = dijkstra(&h, 0);
/// assert_eq!(d[2], Some(12));
/// ```
pub fn dijkstra<G: WeightedAdjacency>(g: &G, source: VertexId) -> Vec<Option<Dist>> {
    shortest_paths(g, source, None)
}

/// Point-to-point distance: the kernel stopped once `target` is settled.
pub fn distance<G: WeightedAdjacency>(g: &G, source: VertexId, target: VertexId) -> Option<Dist> {
    shortest_paths(g, source, Some(target))[target]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_path(weights: &[Dist]) -> WeightedGraph {
        let mut g = WeightedGraph::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(i, i + 1, w);
        }
        g
    }

    #[test]
    fn dijkstra_on_weighted_path() {
        let g = weighted_path(&[2, 3, 4]);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![Some(0), Some(2), Some(5), Some(9)]);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 3, 100);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        assert_eq!(dijkstra(&g, 0)[3], Some(3));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1);
        assert_eq!(dijkstra(&g, 0)[2], None);
    }

    #[test]
    fn bounded_dijkstra_truncates() {
        // A target bounds the search: nothing past it is explored.
        let g = weighted_path(&[2, 3, 4]);
        let d = shortest_paths(&g, 0, Some(2));
        assert_eq!(d[2], Some(5));
        assert_eq!(d[3], None);
    }

    #[test]
    fn bounded_dijkstra_keeps_exact_boundary() {
        let g = weighted_path(&[5]);
        let d = shortest_paths(&g, 0, Some(1));
        assert_eq!(d[1], Some(5));
    }

    #[test]
    fn saturated_paths_are_unreachable() {
        let g = weighted_path(&[Dist::MAX, 1]);
        assert_eq!(dijkstra(&g, 0), vec![Some(0), None, None]);
        let g = weighted_path(&[Dist::MAX - 1, 1]);
        assert_eq!(dijkstra(&g, 0), vec![Some(0), Some(Dist::MAX - 1), None]);
    }

    #[test]
    fn point_to_point_matches_full() {
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 4);
        g.add_edge(1, 4, 6);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(3, 4, 1);
        assert_eq!(distance(&g, 0, 4), Some(3));
        assert_eq!(distance(&g, 0, 4), dijkstra(&g, 0)[4]);
    }

    #[test]
    fn point_to_point_unreachable() {
        let g = WeightedGraph::new(2);
        assert_eq!(distance(&g, 0, 1), None);
    }

    #[test]
    fn source_distance_zero() {
        let g = weighted_path(&[1]);
        assert_eq!(distance(&g, 1, 1), Some(0));
    }
}
