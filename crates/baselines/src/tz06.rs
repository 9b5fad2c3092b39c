//! Thorup–Zwick SODA'06 scale-free emulator (the sampled hierarchy).
//!
//! The classic randomized construction: a hierarchy
//! `V = A_0 ⊇ A_1 ⊇ … ⊇ A_{κ−1}`, each `A_{i+1}` sampled from `A_i` with
//! probability `n^(−1/κ)`. Every `v ∈ A_i \ A_{i+1}` adds weighted edges to
//! its *bunch*: all `u ∈ A_i` strictly closer than its nearest `A_{i+1}`
//! vertex (the *pivot*), plus one edge to the pivot itself. Vertices of the
//! last level connect to all of `A_{κ−1}`.
//!
//! Expected size `O(κ·n^(1+1/κ))`; stretch is near-additive with sublinear
//! error. The comparison point for E8 is the size's leading factor — `κ`
//! here versus exactly 1 in the paper's construction.

use usnae_core::emulator::{EdgeKind, EdgeProvenance, Emulator};
use usnae_graph::bfs::multi_source_bfs;
use usnae_graph::par::BallScratch;
use usnae_graph::rng::Rng;
use usnae_graph::{Dist, Graph};

/// Crate-internal entry point behind the registry adapter: builds the
/// TZ06 emulator with `κ` levels and sampling probability `n^(−1/κ)`,
/// seeded for reproducibility.
pub(crate) fn build_tz06(g: &Graph, kappa: u32, seed: u64) -> Emulator {
    let n = g.num_vertices();
    let mut emulator = Emulator::new(n);
    if n == 0 {
        return emulator;
    }
    let mut rng = Rng::seed_from_u64(seed);
    let p = (n as f64).powf(-1.0 / kappa as f64);

    let mut level: Vec<Vec<usize>> = vec![(0..n).collect()];
    for _ in 1..kappa {
        let prev = level.last().expect("at least A_0 exists");
        let next: Vec<usize> = prev.iter().copied().filter(|_| rng.gen_bool(p)).collect();
        if next.is_empty() {
            break;
        }
        level.push(next);
    }

    let levels = level.len();
    let mut scratch = BallScratch::new(n);
    for i in 0..levels {
        let a_i: std::collections::HashSet<usize> = level[i].iter().copied().collect();
        if i + 1 < levels {
            let a_next = &level[i + 1];
            let a_next_set: std::collections::HashSet<usize> = a_next.iter().copied().collect();
            // Pivot distances d(v, A_{i+1}) via one multi-source BFS.
            let pivots = multi_source_bfs(g, a_next, usnae_graph::INF);
            for &v in &level[i] {
                if a_next_set.contains(&v) {
                    continue;
                }
                let pivot_dist = pivots.dist[v];
                // Bunch: A_i-vertices strictly closer than the pivot.
                if pivot_dist > 0 {
                    let horizon = pivot_dist.saturating_sub(1);
                    for (u, d) in scratch.ball_sorted(g, v, horizon) {
                        if u != v && a_i.contains(&u) {
                            add(&mut emulator, v, u, d, i);
                        }
                    }
                }
                // Edge to the pivot itself.
                if let Some(pivot) = pivots.root[v] {
                    add(&mut emulator, v, pivot, pivot_dist, i);
                }
            }
        } else {
            // Last level: clique over A_{levels-1} (weights = exact dists).
            for (a_idx, &v) in level[i].iter().enumerate() {
                let d = usnae_graph::bfs::bfs(g, v);
                for &u in level[i].iter().skip(a_idx + 1) {
                    if let Some(d) = d[u] {
                        add(&mut emulator, v, u, d, i);
                    }
                }
            }
        }
    }
    emulator
}

fn add(h: &mut Emulator, u: usize, v: usize, w: Dist, phase: usize) {
    h.add_edge(
        u,
        v,
        w,
        EdgeProvenance {
            phase,
            kind: EdgeKind::Interconnection,
            charged_to: u,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp_connected(80, 0.08, 1).unwrap();
        let h1 = build_tz06(&g, 4, 7);
        let h2 = build_tz06(&g, 4, 7);
        assert_eq!(h1.num_edges(), h2.num_edges());
    }

    #[test]
    fn never_shortens_distances() {
        let g = generators::gnp_connected(70, 0.07, 2).unwrap();
        let h = build_tz06(&g, 3, 3);
        let apsp = usnae_graph::distance::Apsp::new(&g);
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 120, 5) {
            if let Some(dh) = h.distance(u, v) {
                assert!(dh >= apsp.distance(u, v).unwrap());
            }
        }
    }

    #[test]
    fn connected_input_connected_output() {
        // Bunches + pivots connect everything through the top level.
        let g = generators::gnp_connected(60, 0.08, 4).unwrap();
        let h = build_tz06(&g, 3, 11);
        let d = h.distances_from(0);
        assert!(
            d.iter().all(|x| x.is_some()),
            "emulator must span the graph"
        );
    }

    #[test]
    fn size_within_expected_factor() {
        // Expected O(κ·n^(1+1/κ)); allow generous slack over the expectation
        // for the randomness.
        let n = 300;
        let g = generators::gnp_connected(n, 0.05, 5).unwrap();
        let kappa = 4;
        let h = build_tz06(&g, kappa, 13);
        let bound = kappa as f64 * (n as f64).powf(1.0 + 1.0 / kappa as f64);
        assert!(
            (h.num_edges() as f64) < 4.0 * bound,
            "{} vs expected O({bound})",
            h.num_edges()
        );
    }

    #[test]
    fn single_level_collapses_to_clique() {
        let g = generators::path(6).unwrap();
        let h = build_tz06(&g, 1, 0);
        // κ = 1: one level, clique over all vertices.
        assert_eq!(h.num_edges(), 15);
    }
}
