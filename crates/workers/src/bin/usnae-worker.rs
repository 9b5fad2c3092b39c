//! The per-shard worker process: reads framed [`Request`]s, answers
//! framed [`Response`]s, and exits nonzero with a diagnostic on stderr
//! for any protocol violation — the driver's teardown path turns that
//! into a typed `WorkerExited` error.
//!
//! `usnae-worker --listen ADDR` binds a TCP listener (`127.0.0.1:0` for
//! an ephemeral loopback port), announces the bound address on stdout as
//! `USNAE-WORKER LISTEN <addr>`, accepts one connection, and serves
//! frames over it — the socket transport's loopback children and the
//! pre-started remote workers behind `--workers-addr` alike. Any other
//! invocation, including none, is a usage error.
//!
//! # Fault injection
//!
//! When `USNAE_WORKER_KILL_SEED` is set (to a `u64`), the worker aborts
//! the whole process after a seeded pseudo-random number of post-`Init`
//! requests, without answering — the conformance suite's kill-injection
//! stress leg, which must surface as a typed error at the driver within
//! its timeout, never a hang.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use usnae_workers::proto::{read_request, write_response, Request, Response};
use usnae_workers::socket::LISTEN_PREFIX;
use usnae_workers::{ShardWorker, WorkerError};

/// Seeded abrupt-death injector (see the module docs).
const KILL_SEED_ENV: &str = "USNAE_WORKER_KILL_SEED";

/// Exit code of an injected kill, distinct from the generic failure exit.
const KILL_EXIT_CODE: i32 = 17;

struct KillSwitch {
    remaining: u64,
}

impl KillSwitch {
    /// Arms the switch from the environment seed and this worker's shard
    /// id: die after 1..=5 post-`Init` requests, a distinct nonzero
    /// stream per shard (the same xorshift mixing as the delay injector).
    fn arm(shard: usize) -> Option<KillSwitch> {
        let seed = std::env::var(KILL_SEED_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())?;
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (shard as u64 + 1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Some(KillSwitch {
            remaining: x % 5 + 1,
        })
    }

    /// Ticks one request; exits the process abruptly when the fuse burns.
    fn tick(&mut self) {
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            let _ = writeln!(std::io::stderr(), "usnae-worker: injected kill");
            std::process::exit(KILL_EXIT_CODE);
        }
    }
}

fn serve(input: &mut impl Read, output: &mut impl Write) -> Result<(), WorkerError> {
    // First frame must be Init: it carries the shard layout this worker
    // owns for the rest of its life.
    let worker = match read_request(input)? {
        None => return Ok(()), // driver went away before initialising us
        Some(Request::Init(init)) => ShardWorker::new(init),
        Some(other) => {
            return Err(WorkerError::Corrupt {
                reason: format!("first request must be Init, got {other:?}"),
            })
        }
    };
    let mut kill = KillSwitch::arm(worker.shard());
    write_response(output, &Response::Ready)?;
    let mut worker = worker;
    loop {
        let req = match read_request(input)? {
            // Clean EOF at a frame boundary: driver closed our socket
            // after (or instead of) a graceful shutdown.
            None => return Ok(()),
            Some(req) => req,
        };
        if let Some(kill) = kill.as_mut() {
            kill.tick();
        }
        let stop = matches!(req, Request::Shutdown);
        let resp = worker.handle(req)?;
        write_response(output, &resp)?;
        if stop {
            return Ok(());
        }
    }
}

/// `--listen ADDR`: bind, announce, accept one connection, serve it.
fn serve_listener(addr: &str) -> Result<(), WorkerError> {
    let listener = TcpListener::bind(addr).map_err(WorkerError::Io)?;
    let local = listener.local_addr().map_err(WorkerError::Io)?;
    {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "{LISTEN_PREFIX}{local}").map_err(WorkerError::Io)?;
        stdout.flush().map_err(WorkerError::Io)?;
    }
    let (stream, _peer) = listener.accept().map_err(WorkerError::Io)?;
    stream.set_nodelay(true).map_err(WorkerError::Io)?;
    let mut reader = stream.try_clone().map_err(WorkerError::Io)?;
    let mut writer = stream;
    serve(&mut reader, &mut writer)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, addr] if flag == "--listen" => serve_listener(addr),
        _ => Err(WorkerError::Corrupt {
            reason: format!("usage: usnae-worker --listen ADDR, got {args:?}"),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "usnae-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
