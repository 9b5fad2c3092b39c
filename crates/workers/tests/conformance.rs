//! Pool-level conformance: for both transports, every shard count, and
//! adversarial interleavings, [`WorkerPool`] results are identical to the
//! in-process references `usnae_graph::par::balls` and
//! `usnae_graph::par::explorations` (itself checked against a dense FIFO
//! BFS in its own unit tests).
//!
//! Living in the workers crate's own integration tests means
//! `CARGO_BIN_EXE_usnae-worker` is available, so the socket transport is
//! pinned to the freshly-built worker binary.

use std::sync::Once;

use usnae_graph::partition::{boundaries, PartitionPolicy};
use usnae_graph::{generators, par, Graph, VertexId};
use usnae_workers::proto::ShardInit;
use usnae_workers::{TransportKind, WorkerPool};

/// Pins the socket transport to the binary cargo just built.
fn pin_worker_bin() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("USNAE_WORKER_BIN", env!("CARGO_BIN_EXE_usnae-worker"));
    });
}

/// Shard layouts straight from the graph's adjacency (what
/// `usnae_core`'s engine ships from `ShardedCsr`).
fn shard_inits(g: &Graph, bounds: &[VertexId]) -> Vec<ShardInit> {
    let num_shards = bounds.len() - 1;
    (0..num_shards)
        .map(|s| {
            let (start, end) = (bounds[s], bounds[s + 1]);
            let mut offsets = vec![0usize];
            let mut adjacency = Vec::new();
            for v in start..end {
                adjacency.extend_from_slice(g.neighbors(v));
                offsets.push(adjacency.len());
            }
            ShardInit {
                shard: s,
                num_shards,
                num_vertices: g.num_vertices(),
                start,
                end,
                offsets,
                adjacency,
            }
        })
        .collect()
}

fn pool(g: &Graph, kind: TransportKind, shards: usize) -> WorkerPool {
    let bounds = boundaries(g, PartitionPolicy::DegreeBalanced, shards);
    WorkerPool::new(kind, shard_inits(g, &bounds)).expect("pool spawns")
}

fn graphs() -> Vec<Graph> {
    vec![
        generators::gnp_connected(60, 0.08, 7).expect("valid gnp"),
        generators::gnp_connected(90, 0.05, 23).expect("valid gnp"),
    ]
}

fn sources(g: &Graph) -> Vec<VertexId> {
    // A spread of sources across all shards, including the extremes.
    let n = g.num_vertices();
    vec![0, n / 3, n / 2, 2 * n / 3, n - 1]
}

fn check_transport(kind: TransportKind) {
    for g in graphs() {
        let srcs = sources(&g);
        for shards in [2usize, 4] {
            for depth in [0u64, 1, 3, u64::MAX / 2] {
                let mut p = pool(&g, kind, shards);
                let got = p.balls(&srcs, depth).expect("balls run");
                let want = par::balls(&g, &srcs, depth, 1);
                assert_eq!(got, want, "{kind} x{shards} depth={depth}: balls diverged");

                let got = p.explorations(&srcs, depth).expect("explorations run");
                let want = par::explorations(&g, &srcs, depth, 1);
                assert_eq!(
                    got, want,
                    "{kind} x{shards} depth={depth}: explorations diverged"
                );

                let stats = p.shutdown().expect("clean shutdown");
                if depth > 0 && shards > 1 {
                    assert!(stats.rounds > 0, "{kind}: no rounds measured");
                    assert!(stats.messages > 0, "{kind}: no messages measured");
                    assert!(stats.bytes > 0, "{kind}: no bytes measured");
                    assert!(!stats.pairs.is_empty(), "{kind}: no pair traffic");
                }
            }
        }
    }
}

#[test]
fn channel_pool_matches_the_in_process_references() {
    check_transport(TransportKind::Channel);
}

#[test]
fn socket_pool_matches_the_in_process_references() {
    pin_worker_bin();
    check_transport(TransportKind::Socket);
}

#[test]
fn both_transports_report_identical_message_stats() {
    pin_worker_bin();
    let g = generators::gnp_connected(60, 0.08, 7).expect("valid gnp");
    let srcs = sources(&g);
    let run = |kind| {
        let mut p = pool(&g, kind, 4);
        p.balls(&srcs, 4).expect("balls run");
        p.explorations(&srcs, 4).expect("explorations run");
        p.shutdown().expect("clean shutdown")
    };
    assert_eq!(run(TransportKind::Channel), run(TransportKind::Socket));
}

#[test]
fn seeded_worker_delays_never_change_the_output() {
    // Adversarial scheduling: per-worker pseudo-random delays scramble
    // thread interleavings; results and stats must not move.
    let g = generators::gnp_connected(90, 0.05, 23).expect("valid gnp");
    let srcs = sources(&g);
    let baseline = {
        let mut p = pool(&g, TransportKind::Channel, 4);
        let out = (
            p.balls(&srcs, 5).expect("balls run"),
            p.explorations(&srcs, 5).expect("explorations run"),
        );
        (out, p.shutdown().expect("clean shutdown"))
    };
    for seed in [1u64, 99] {
        std::env::set_var("USNAE_WORKER_DELAY_SEED", seed.to_string());
        let mut p = pool(&g, TransportKind::Channel, 4);
        let out = (
            p.balls(&srcs, 5).expect("balls run"),
            p.explorations(&srcs, 5).expect("explorations run"),
        );
        let stats = p.shutdown().expect("clean shutdown");
        std::env::remove_var("USNAE_WORKER_DELAY_SEED");
        assert_eq!((out, stats), baseline, "delay seed {seed} changed output");
    }
}

#[test]
fn single_shard_pools_also_conform() {
    // Degenerate layout: everything owned by one worker, no routing.
    let g = generators::gnp_connected(40, 0.1, 3).expect("valid gnp");
    let srcs = sources(&g);
    let mut p = pool(&g, TransportKind::Channel, 1);
    assert_eq!(
        p.balls(&srcs, 3).expect("balls run"),
        par::balls(&g, &srcs, 3, 1)
    );
    assert_eq!(
        p.explorations(&srcs, 3).expect("explorations run"),
        par::explorations(&g, &srcs, 3, 1)
    );
    p.shutdown().expect("clean shutdown");
}

#[test]
fn results_outside_a_shards_range_are_a_protocol_error() {
    // Shard 0's layout claims vertices 4 and 5, which the pool routes to
    // shard 1: its results then overlap shard 1's range, and the pool must
    // refuse the merge instead of returning a ball that is not sorted.
    let g = generators::path(8).expect("valid path");
    let mut inits = shard_inits(&g, &[0, 6, 8]);
    let second = shard_inits(&g, &[0, 4, 8]).remove(1);
    inits[1] = second;
    let mut p = WorkerPool::new(TransportKind::Channel, inits).expect("pool spawns");
    match p.explorations(&[0], 8) {
        Err(usnae_workers::WorkerError::Protocol { shard: 0, reason }) => {
            assert!(reason.contains("not ascending"), "got {reason}");
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }
}
