//! Robust-teardown coverage for the socket transport's loopback children:
//! a worker that dies, exits nonzero, or announces garbage must surface a
//! **typed** error without ever hanging the driver, and dropped transports
//! must reap their children.
//!
//! These tests point `USNAE_WORKER_BIN` at deliberately broken
//! executables; the env var is process-global, so the cases share a mutex
//! (and live in their own integration binary, away from the happy-path
//! suite).

use std::sync::Mutex;

use usnae_workers::proto::ShardInit;
use usnae_workers::{TransportKind, WorkerError, WorkerPool};

static BIN_LOCK: Mutex<()> = Mutex::new(());

fn tiny_inits(shards: usize) -> Vec<ShardInit> {
    // A path graph split evenly; enough to drive a real round if the
    // worker were healthy.
    let n = 8;
    let per = n / shards;
    (0..shards)
        .map(|s| {
            let start = s * per;
            let end = if s == shards - 1 { n } else { start + per };
            let mut offsets = vec![0usize];
            let mut adjacency = Vec::new();
            for v in start..end {
                if v > 0 {
                    adjacency.push(v - 1);
                }
                if v + 1 < n {
                    adjacency.push(v + 1);
                }
                offsets.push(adjacency.len());
            }
            ShardInit {
                shard: s,
                num_shards: shards,
                num_vertices: n,
                start,
                end,
                offsets,
                adjacency,
            }
        })
        .collect()
}

fn with_bin<T>(bin: &str, f: impl FnOnce() -> T) -> T {
    let _guard = BIN_LOCK.lock().expect("bin lock");
    std::env::set_var("USNAE_WORKER_BIN", bin);
    let out = f();
    std::env::remove_var("USNAE_WORKER_BIN");
    out
}

#[test]
fn a_worker_that_exits_immediately_is_a_typed_error_not_a_hang() {
    // `/bin/false` exits 1 without announcing a listen address: the
    // spawn must fail with the exit status attached.
    let err = with_bin("/bin/false", || {
        WorkerPool::new(TransportKind::Socket, tiny_inits(2)).err()
    })
    .expect("handshake must fail");
    match err {
        WorkerError::WorkerExited { shard: 0, code, .. } => {
            assert_eq!(code, Some(1), "exit code must be captured");
        }
        other => panic!("expected WorkerExited, got {other}"),
    }
}

#[test]
fn a_worker_that_speaks_garbage_is_a_typed_error_not_a_hang() {
    // `echo` prints its arguments instead of `USNAE-WORKER LISTEN
    // <addr>`: the driver must refuse the malformed announcement.
    let err = with_bin("/bin/echo", || {
        WorkerPool::new(TransportKind::Socket, tiny_inits(2)).err()
    })
    .expect("handshake must fail");
    match err {
        WorkerError::Protocol { shard: 0, reason } => {
            assert!(reason.contains("listen announcement"), "got {reason}");
        }
        other => panic!("expected a Protocol error, got {other}"),
    }
}

#[test]
fn a_missing_worker_binary_is_an_io_error() {
    let err = with_bin("/nonexistent/usnae-worker", || {
        WorkerPool::new(TransportKind::Socket, tiny_inits(2)).err()
    })
    .expect("spawn must fail");
    assert!(matches!(err, WorkerError::Io(_)), "got {err}");
}

#[test]
fn dropping_a_healthy_pool_reaps_its_children() {
    // Kill-on-drop guard: skipping the graceful shutdown must not leak
    // worker processes (drop blocks until every child is reaped).
    let _guard = BIN_LOCK.lock().expect("bin lock");
    std::env::set_var("USNAE_WORKER_BIN", env!("CARGO_BIN_EXE_usnae-worker"));
    let mut pool =
        WorkerPool::new(TransportKind::Socket, tiny_inits(2)).expect("healthy pool spawns");
    pool.balls(&[0, 7], 3).expect("balls run");
    drop(pool); // no shutdown: Drop must kill + wait
    std::env::remove_var("USNAE_WORKER_BIN");
}

#[test]
fn a_worker_started_without_listen_is_a_usage_error() {
    // Frames travel only over a socket: with no `--listen ADDR` the
    // worker must refuse to start rather than serve its stdin.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_usnae-worker"))
        .stdin(std::process::Stdio::null())
        .output()
        .expect("run usnae-worker");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: usnae-worker --listen ADDR"),
        "{stderr}"
    );
}
