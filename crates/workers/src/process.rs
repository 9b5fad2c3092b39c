//! Locating the `usnae-worker` executable that the socket transport
//! spawns as loopback `--listen` children.

use std::path::PathBuf;

/// Environment override for the worker executable path; without it the
/// binary is searched next to the current executable (covering
/// `target/{debug,release}` and their `deps/` test layout) and finally on
/// `PATH`.
pub const WORKER_BIN_ENV: &str = "USNAE_WORKER_BIN";

/// Resolves the `usnae-worker` executable.
pub fn worker_bin() -> PathBuf {
    if let Ok(p) = std::env::var(WORKER_BIN_ENV) {
        return PathBuf::from(p);
    }
    let name = format!("usnae-worker{}", std::env::consts::EXE_SUFFIX);
    if let Ok(exe) = std::env::current_exe() {
        // Test binaries live in target/<profile>/deps/, the CLI in
        // target/<profile>/ — check the sibling dir and its parent.
        let mut dir = exe.parent().map(PathBuf::from);
        for _ in 0..2 {
            if let Some(d) = dir {
                let candidate = d.join(&name);
                if candidate.is_file() {
                    return candidate;
                }
                dir = d.parent().map(PathBuf::from);
            } else {
                break;
            }
        }
    }
    PathBuf::from(name)
}
