//! Kill-injection leg of the worker suite: socket workers that die
//! mid-round must fail the build with a typed worker error within a
//! timeout, never hang it.
//!
//! The kill switch lives in an env var (`USNAE_WORKER_KILL_SEED`, read by
//! `usnae-worker`), and env vars are process-global — so the injection
//! runs in a *child* `usnae` CLI process with the var set only on that
//! command, never in this (concurrently tested) process. Cargo builds the
//! CLI binary for this package's integration tests, so the child always
//! exists, whatever was built before.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use usnae_graph::generators;

const KILL_SEED_ENV: &str = "USNAE_WORKER_KILL_SEED";

/// Runs `usnae run --algo fast-centralized --transport socket --shards 2`
/// on `edges`, with the kill switch armed when `kill_seed` is set, and
/// returns the exit status and stderr. Panics if the run outlives the
/// 60 s deadline — a hang is the bug this leg exists to catch.
fn run_socket_build(edges: &Path, kill_seed: Option<&str>) -> (ExitStatus, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_usnae"));
    cmd.args([
        "run",
        "--algo",
        "fast-centralized",
        "--input",
        edges.to_str().unwrap(),
        "--transport",
        "socket",
        "--shards",
        "2",
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    match kill_seed {
        Some(seed) => cmd.env(KILL_SEED_ENV, seed),
        None => cmd.env_remove(KILL_SEED_ENV),
    };
    let mut child = cmd.spawn().expect("spawn usnae CLI");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("socket build (kill seed {kill_seed:?}) hung past the timeout");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let out = child.wait_with_output().expect("collect child output");
    (status, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn killed_workers_fail_typed_within_timeout() {
    let dir = std::env::temp_dir().join(format!("usnae-worker-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("g.edges");
    let g = generators::gnp_connected(130, 8.0 / 130.0, 5).expect("valid gnp parameters");
    let mut text = String::new();
    for (u, v) in g.edges() {
        text.push_str(&format!("{u} {v}\n"));
    }
    std::fs::write(&edges, text).unwrap();

    // Control: the same build without the kill switch succeeds. Without
    // it, a missing `usnae-worker` binary (a typed spawn error) would
    // satisfy the assertions below vacuously.
    let (status, stderr) = run_socket_build(&edges, None);
    assert!(
        status.success(),
        "control socket build must succeed (stderr: {stderr})"
    );

    let (status, stderr) = run_socket_build(&edges, Some("99"));
    assert!(
        !status.success(),
        "build with killed workers must fail (stderr: {stderr})"
    );
    assert!(
        stderr.contains("worker"),
        "expected a typed worker error, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
