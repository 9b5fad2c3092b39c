//! EN17a-style randomized superclustering emulator (Elkin–Neiman SODA'17).
//!
//! The variant recounted in the paper's §2: instead of deterministic
//! popularity + buffer sets, *cluster centers are sampled* with probability
//! `1/deg_i`; every cluster with a sampled center within `δ_i` joins the
//! closest such center (randomized superclustering needs no ground
//! partition and no buffer sets), and clusters with no sampled center
//! nearby interconnect with all clusters within `δ_i`. Linear expected
//! size, but per-phase analysis — the size cannot reach the paper's
//! ultra-sparse `n + o(n)` with leading constant 1 (§2: "it cannot be used
//! to provide ultra-sparse emulators").

use usnae_core::cluster::{Cluster, Partition};
use usnae_core::emulator::{EdgeKind, EdgeProvenance, Emulator};
use usnae_core::engine::Engine;
use usnae_core::params::CentralizedParams;
use usnae_graph::bfs::multi_source_bfs;
use usnae_graph::rng::Rng;
use usnae_graph::{Graph, VertexId};

/// Crate-internal entry point behind the registry adapter: builds an
/// EN17a-style emulator (randomized superclustering), seeded, with the
/// explorations running through `engine` (shared array, partitioned
/// shards, or a worker pool) — byte-identical either way. The sampling
/// RNG runs before any sharded work, so for a fixed `seed` the build is
/// byte-identical for every thread count.
pub(crate) fn build_en17_exec(
    g: &Graph,
    params: &CentralizedParams,
    seed: u64,
    engine: &Engine<'_>,
) -> Emulator {
    let n = g.num_vertices();
    let mut emulator = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut rng = Rng::seed_from_u64(seed);

    for i in 0..=params.ell() {
        let last = i == params.ell();
        partition = run_phase(
            g,
            engine,
            &mut emulator,
            &partition,
            i,
            params,
            last,
            &mut rng,
        );
        if partition.is_empty() {
            break;
        }
    }
    emulator
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    g: &Graph,
    engine: &Engine<'_>,
    emulator: &mut Emulator,
    partition: &Partition,
    i: usize,
    params: &CentralizedParams,
    last: bool,
    rng: &mut Rng,
) -> Partition {
    let n = g.num_vertices();
    let delta = params.delta(i);
    let center_of = partition.center_index();
    let centers = partition.centers();
    let mut is_center = vec![false; n];
    for &c in &centers {
        is_center[c] = true;
    }

    // Sample centers with probability 1/deg_i.
    let p_sample = (1.0 / params.degree_threshold(i, n)).clamp(0.0, 1.0);
    let sampled: Vec<VertexId> = if last {
        Vec::new()
    } else {
        centers
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(p_sample))
            .collect()
    };
    let sampled_set: std::collections::HashSet<VertexId> = sampled.iter().copied().collect();

    let mut next: Vec<Cluster> = Vec::new();
    if !sampled.is_empty() {
        // Clusters join the closest sampled center within δ_i.
        let forest = multi_source_bfs(g, &sampled, delta);
        let mut members: std::collections::HashMap<VertexId, Vec<usize>> =
            sampled.iter().map(|&s| (s, vec![center_of[&s]])).collect();
        for &rc in &centers {
            if sampled_set.contains(&rc) {
                continue;
            }
            if let Some(root) = forest.root[rc] {
                emulator.add_edge(
                    root,
                    rc,
                    forest.dist[rc],
                    EdgeProvenance {
                        phase: i,
                        kind: EdgeKind::Superclustering,
                        charged_to: rc,
                    },
                );
                members
                    .get_mut(&root)
                    .expect("sampled roots seeded")
                    .push(center_of[&rc]);
            }
        }
        let mut roots: Vec<VertexId> = members.keys().copied().collect();
        roots.sort_unstable();
        for r in roots {
            let mut cluster_members = Vec::new();
            for &idx in &members[&r] {
                cluster_members.extend_from_slice(&partition.cluster(idx).members);
            }
            next.push(Cluster {
                center: r,
                members: cluster_members,
            });
        }
    }

    // Unsuperclustered clusters interconnect with all clusters within δ_i.
    let joined: std::collections::HashSet<VertexId> = if sampled.is_empty() {
        Default::default()
    } else {
        let forest = multi_source_bfs(g, &sampled, delta);
        centers
            .iter()
            .copied()
            .filter(|&c| forest.root[c].is_some())
            .collect()
    };
    // The interconnection scan is status-free (the joined set and center
    // set are fixed above), so the per-center scans shard cleanly and no
    // prefetched scan can go stale; edges are still inserted in center
    // order, neighbors sorted by vertex id. Fixed-size blocks bound the
    // balls a worker pool returns at once.
    let work: Vec<VertexId> = centers
        .iter()
        .copied()
        .filter(|rc| !joined.contains(rc))
        .collect();
    for block in work.chunks(4096) {
        let neighbor_lists = engine.centers_within(block, delta, &is_center);
        for (&rc, nbrs) in block.iter().zip(&neighbor_lists) {
            for &(v, d) in nbrs {
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
            }
        }
    }
    Partition::from_clusters(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;

    /// The in-process build at `threads`.
    fn build_en17(g: &Graph, params: &CentralizedParams, seed: u64, threads: usize) -> Emulator {
        build_en17_exec(g, params, seed, &Engine::inproc(g, threads))
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp_connected(80, 0.08, 1).unwrap();
        let p = CentralizedParams::new(0.5, 4).unwrap();
        assert_eq!(
            build_en17(&g, &p, 5, 1).num_edges(),
            build_en17(&g, &p, 5, 1).num_edges()
        );
    }

    #[test]
    fn never_shortens_distances() {
        let g = generators::gnp_connected(60, 0.08, 3).unwrap();
        let p = CentralizedParams::new(0.5, 3).unwrap();
        let h = build_en17(&g, &p, 9, 1);
        let apsp = usnae_graph::distance::Apsp::new(&g);
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 100, 7) {
            if let Some(dh) = h.distance(u, v) {
                assert!(dh >= apsp.distance(u, v).unwrap());
            }
        }
    }

    #[test]
    fn path_gives_path() {
        let g = generators::path(25).unwrap();
        let p = CentralizedParams::new(0.5, 2).unwrap();
        let h = build_en17(&g, &p, 1, 1);
        // δ_0 = 1 interconnections reproduce the path; sampling at
        // probability 25^(-1/2) leaves mostly interconnections.
        assert!(h.num_edges() >= 20);
    }

    #[test]
    fn size_stays_moderate_on_random_graphs() {
        let n = 250;
        let g = generators::gnp_connected(n, 0.06, 5).unwrap();
        let p = CentralizedParams::new(0.5, 4).unwrap();
        let h = build_en17(&g, &p, 3, 1);
        // Expected O(n^(1+1/κ)); allow randomness slack.
        assert!((h.num_edges() as f64) < 5.0 * p.size_bound(n));
    }
}
