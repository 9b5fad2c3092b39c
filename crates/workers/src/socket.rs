//! Socket workers: the framed `USNAEWKR` protocol of [`crate::proto`],
//! carried over TCP.
//!
//! Two deployment shapes behind one transport:
//!
//! * **Loopback (default)** — one `usnae-worker --listen 127.0.0.1:0`
//!   child is spawned per shard; each child binds an ephemeral port,
//!   announces it on stdout (`USNAE-WORKER LISTEN <addr>`), accepts one
//!   connection, and serves frames over it. Children are kill-on-drop.
//! * **Remote** — when [`WORKERS_ADDR_ENV`] is set (comma-separated
//!   `host:port` list, one per shard, set by the CLI's `--workers-addr`),
//!   the driver connects to pre-started `usnae-worker --listen` processes
//!   instead of spawning its own.
//!
//! Liveness is part of the contract: connects use [`CONNECT_TIMEOUT`]
//! with bounded retry and exponential backoff (a remote worker may not be
//! listening yet), every stream carries read/write timeouts (default
//! [`DEFAULT_IO_TIMEOUT_MS`], override via [`SOCKET_TIMEOUT_ENV`]), and a
//! worker that dies mid-round closes its socket, so the driver's next
//! read fails immediately and surfaces as a typed [`WorkerError`]
//! (`WorkerExited` for spawned children, `Disconnected` for remote
//! peers) — never a hang.

use std::io::Read;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::error::WorkerError;
use crate::process::worker_bin;
use crate::proto::{read_response, write_request, Request, Response, ShardInit};
use crate::Transport;

/// Environment variable naming pre-started remote workers: a
/// comma-separated `host:port` list with one address per shard, in shard
/// order. When unset, loopback children are spawned instead.
pub const WORKERS_ADDR_ENV: &str = "USNAE_WORKERS_ADDR";

/// Environment override (milliseconds) for the per-stream read/write
/// timeout; the backstop that turns a genuinely hung peer into a typed
/// I/O timeout error instead of a stuck build.
pub const SOCKET_TIMEOUT_ENV: &str = "USNAE_SOCKET_TIMEOUT_MS";

/// Default per-stream read/write timeout.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 30_000;

/// Per-attempt TCP connect timeout.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Bounded connect retries (exponential backoff from 10 ms).
pub const CONNECT_RETRIES: u32 = 6;

/// The line a listening worker prints on stdout once it is bound, before
/// its actual address: the driver's port-discovery handshake for
/// loopback-spawned children with ephemeral ports.
pub const LISTEN_PREFIX: &str = "USNAE-WORKER LISTEN ";

/// How long the driver waits for a spawned child's `LISTEN` line.
const SPAWN_ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(10);

fn io_timeout() -> Duration {
    let ms = std::env::var(SOCKET_TIMEOUT_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_IO_TIMEOUT_MS);
    Duration::from_millis(ms)
}

/// A loopback-spawned listening child (kill-on-drop).
struct SpawnedChild {
    child: Child,
}

impl SpawnedChild {
    /// Kills and reaps the child, returning `(exit code, stderr)`.
    fn reap(&mut self) -> (Option<i32>, String) {
        let _ = self.child.kill();
        let status = self.child.wait().ok();
        let mut stderr = String::new();
        if let Some(mut err) = self.child.stderr.take() {
            let _ = err.read_to_string(&mut stderr);
        }
        (status.and_then(|s| s.code()), stderr)
    }
}

impl Drop for SpawnedChild {
    fn drop(&mut self) {
        // Kill-on-drop guard: never leak a listening worker, even on an
        // error path that skipped the graceful shutdown.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct SocketWorker {
    stream: Option<TcpStream>,
    /// `Some` for loopback-spawned children, `None` for remote peers.
    child: Option<SpawnedChild>,
}

/// One TCP connection per shard; frames flow over the socket, teardown
/// kills any spawned children.
pub struct SocketTransport {
    workers: Vec<SocketWorker>,
}

impl SocketTransport {
    /// Connects (or spawns-and-connects) one worker per shard layout and
    /// runs the `Init → Ready` handshake on each.
    ///
    /// # Errors
    ///
    /// [`WorkerError`] when an address list is malformed or short, a
    /// connect exhausts its retries, or a handshake fails or times out;
    /// children spawned so far are killed.
    pub fn new(inits: Vec<ShardInit>) -> Result<Self, WorkerError> {
        let remote = remote_addrs(inits.len())?;
        let timeout = io_timeout();
        let mut transport = SocketTransport {
            workers: Vec::with_capacity(inits.len()),
        };
        for (shard, init) in inits.into_iter().enumerate() {
            let (stream, child) = match &remote {
                Some(addrs) => (connect(shard, addrs[shard], timeout)?, None),
                None => {
                    let (mut child, addr) = spawn_listener(shard)?;
                    match connect(shard, addr, timeout) {
                        Ok(stream) => (stream, Some(child)),
                        Err(e) => {
                            let (code, stderr) = child.reap();
                            return Err(match e {
                                WorkerError::Io(_) => WorkerError::WorkerExited {
                                    shard,
                                    code,
                                    stderr,
                                },
                                other => other,
                            });
                        }
                    }
                }
            };
            transport.workers.push(SocketWorker {
                stream: Some(stream),
                child,
            });
            let ready = transport.round_trip(shard, &Request::Init(init))?;
            if !matches!(ready, Response::Ready) {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("expected Ready after Init, got {ready:?}"),
                });
            }
        }
        Ok(transport)
    }

    /// If `shard`'s worker is dead or its connection dropped, converts
    /// `err` into the lifecycle variant ([`WorkerError::WorkerExited`]
    /// for spawned children, [`WorkerError::Disconnected`] for remote
    /// peers); otherwise drops the now-unusable connection and keeps the
    /// frame error.
    fn enrich(&mut self, shard: usize, err: WorkerError) -> WorkerError {
        let worker = &mut self.workers[shard];
        worker.stream = None; // the stream is unusable after any error
        let dropped = matches!(err, WorkerError::Io(_) | WorkerError::Truncated { .. });
        match worker.child.as_mut() {
            Some(child) => {
                let died = !matches!(child.child.try_wait(), Ok(None));
                let (code, stderr) = child.reap();
                if died || dropped {
                    WorkerError::WorkerExited {
                        shard,
                        code,
                        stderr,
                    }
                } else {
                    err
                }
            }
            None if dropped => WorkerError::Disconnected { shard },
            None => err,
        }
    }

    fn send(&mut self, shard: usize, req: &Request) -> Result<(), WorkerError> {
        let r = match self.workers[shard].stream.as_mut() {
            Some(stream) => write_request(stream, req),
            None => Err(WorkerError::Disconnected { shard }),
        };
        r.map_err(|e| self.enrich(shard, e))
    }

    fn recv(&mut self, shard: usize) -> Result<Response, WorkerError> {
        let r = match self.workers[shard].stream.as_mut() {
            Some(stream) => read_response(stream),
            None => Err(WorkerError::Disconnected { shard }),
        };
        r.map_err(|e| self.enrich(shard, e))
    }

    fn round_trip(&mut self, shard: usize, req: &Request) -> Result<Response, WorkerError> {
        self.send(shard, req)?;
        self.recv(shard)
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn exchange(&mut self, reqs: Vec<Request>) -> Result<Vec<Response>, WorkerError> {
        assert_eq!(reqs.len(), self.workers.len(), "one request per shard");
        // Send everything first (workers compute concurrently), then
        // drain responses in ascending shard id — the round barrier.
        for (shard, req) in reqs.iter().enumerate() {
            self.send(shard, req)?;
        }
        let mut resps = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            resps.push(self.recv(shard)?);
        }
        Ok(resps)
    }

    fn shutdown(&mut self) -> Result<(), WorkerError> {
        for shard in 0..self.workers.len() {
            let resp = self.round_trip(shard, &Request::Shutdown)?;
            if !matches!(resp, Response::Stopping) {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("expected Stopping, got {resp:?}"),
                });
            }
            let worker = &mut self.workers[shard];
            worker.stream = None; // closing the socket lets the peer exit
            if let Some(child) = worker.child.as_mut() {
                let status = child.child.wait().map_err(WorkerError::Io)?;
                if !status.success() {
                    let (_, stderr) = child.reap();
                    return Err(WorkerError::WorkerExited {
                        shard,
                        code: status.code(),
                        stderr,
                    });
                }
                worker.child = None; // already reaped; skip the drop kill
            }
        }
        Ok(())
    }
}

/// Parses [`WORKERS_ADDR_ENV`] when set: one resolved address per shard,
/// shard order.
fn remote_addrs(shards: usize) -> Result<Option<Vec<SocketAddr>>, WorkerError> {
    let Ok(spec) = std::env::var(WORKERS_ADDR_ENV) else {
        return Ok(None);
    };
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(None);
    }
    let mut addrs = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let addr = part
            .to_socket_addrs()
            .map_err(WorkerError::Io)?
            .next()
            .ok_or_else(|| WorkerError::Corrupt {
                reason: format!("{WORKERS_ADDR_ENV}: address '{part}' did not resolve"),
            })?;
        addrs.push(addr);
    }
    if addrs.len() < shards {
        return Err(WorkerError::Corrupt {
            reason: format!(
                "{WORKERS_ADDR_ENV} lists {} worker address(es) for {shards} shard(s)",
                addrs.len()
            ),
        });
    }
    Ok(Some(addrs))
}

/// Connects to one worker with bounded retry and exponential backoff,
/// then arms the stream's read/write timeouts.
fn connect(shard: usize, addr: SocketAddr, timeout: Duration) -> Result<TcpStream, WorkerError> {
    let mut backoff = Duration::from_millis(10);
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..CONNECT_RETRIES {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true).map_err(WorkerError::Io)?;
                stream
                    .set_read_timeout(Some(timeout))
                    .map_err(WorkerError::Io)?;
                stream
                    .set_write_timeout(Some(timeout))
                    .map_err(WorkerError::Io)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(WorkerError::Io(std::io::Error::new(
        last.as_ref()
            .map_or(std::io::ErrorKind::TimedOut, |e| e.kind()),
        format!(
            "shard {shard}: worker at {addr} unreachable after {CONNECT_RETRIES} attempts: {}",
            last.map_or_else(|| "timed out".to_string(), |e| e.to_string())
        ),
    )))
}

/// Spawns one `usnae-worker --listen 127.0.0.1:0` child and waits
/// (bounded) for its `LISTEN` announcement carrying the bound address.
fn spawn_listener(shard: usize) -> Result<(SpawnedChild, SocketAddr), WorkerError> {
    let bin = worker_bin();
    let mut child = Command::new(&bin)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(WorkerError::Io)?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut child = SpawnedChild { child };

    // Read the announcement on a helper thread so a child that never
    // prints (or dies before binding) cannot block the driver: the
    // bounded recv turns it into a typed timeout error.
    let (tx, rx) = std::sync::mpsc::channel::<std::io::Result<String>>();
    std::thread::spawn(move || {
        let mut line = String::new();
        let mut byte = [0u8; 1];
        let mut stdout = stdout;
        let result = loop {
            match stdout.read(&mut byte) {
                Ok(0) => {
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "worker exited before announcing its listen address",
                    ))
                }
                Ok(_) if byte[0] == b'\n' => break Ok(line),
                Ok(_) => line.push(byte[0] as char),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        let _ = tx.send(result);
    });
    let line = match rx.recv_timeout(SPAWN_ANNOUNCE_TIMEOUT) {
        Ok(Ok(line)) => line,
        Ok(Err(_)) | Err(_) => {
            let (code, stderr) = child.reap();
            return Err(WorkerError::WorkerExited {
                shard,
                code,
                stderr,
            });
        }
    };
    let addr = line
        .strip_prefix(LISTEN_PREFIX)
        .and_then(|a| a.trim().parse::<SocketAddr>().ok())
        .ok_or_else(|| WorkerError::Protocol {
            shard,
            reason: format!("malformed listen announcement: {line:?}"),
        })?;
    Ok((child, addr))
}
