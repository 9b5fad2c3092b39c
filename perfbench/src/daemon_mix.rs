//! `daemon-mix`: an in-process `usnae serve` daemon under two closed-loop
//! client connections — query batches against one shared snapshot, warm
//! build hits, and cold builds of fresh keys that store snapshots and
//! force evictions under a byte budget smaller than the distinct set.

use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use perfbench::host::Pace;
use perfbench::stats;
use perfbench::sys;
use perfbench::trace::Span;
use usnae_baselines::registry;
use usnae_core::api::{BuildConfig, MappedBackend, QueryEngine};
use usnae_core::cache::{CacheKey, Snapshot};
use usnae_core::serve::{
    Client, JobCache, JobSpec, Resolver, ServeConfig, ServeError, Server, ServiceStats,
};
use usnae_graph::{io as gio, Graph, VertexId};

use crate::common::{self, check_stretch, secs, Ctx, Done, Pass, Rng};
use crate::registry_build;

/// Vertices of the input graph: the build workloads' size, at which two
/// clients complete over a thousand query batches in a 20-second run.
pub const N: usize = registry_build::N;

/// The construction every job builds (keys differ by seed).
const ALGORITHM: &str = "centralized";

/// Client connections, each a closed loop.
const CLIENTS: usize = 2;

/// Pairs per query batch: the batch the repository's `serve` bench sends
/// in its CI smoke run (`--queries 100`).
const BATCH: usize = 100;

/// Each client runs cycles of this many requests: one cold build of a
/// fresh key, `WARM_PER_CYCLE` warm builds of the shared key, and query
/// batches in every other slot, in a seeded order drawn anew for every
/// cycle. The counts keep the mix the same in every part of the run; the
/// fresh order keeps the two clients' cold builds from lining up with the
/// other client's queries the same way all run long. No recorded daemon
/// traffic exists; the cycle is assumed (see the benchmark's README).
const CYCLE: usize = 16;

/// Warm builds per cycle: the `serve` bench's warm samples per cold build
/// (its default `--samples 3`).
const WARM_PER_CYCLE: usize = 3;

/// Cache budget, in snapshots of the shared key's size: the shared key
/// plus the latest cold key of each client, and one more, stay resident;
/// older cold keys are evicted.
const BUDGET_SNAPSHOTS: u64 = 4;

/// Set-ups timed per run.
const SETUPS: usize = 5;

/// Seconds the clients run between two host reference marks.
const BLOCK_S: f64 = 1.0;

/// Windows the measured part is split into for the loop figures.
const DAEMON_WINDOWS: usize = 4;

/// Every this many query batches of a client is kept and re-answered by
/// a local engine on the same snapshot.
const CHECK_EVERY: usize = 32;

/// Checked batches whose pairs are also checked against exact BFS.
const STRETCH_BATCHES: usize = 2;

/// What a client needs to reach the daemon.
struct Endpoint {
    socket: PathBuf,
    /// The job every query batch and warm build names.
    shared: JobSpec,
    /// Stream fingerprint of the shared key's output.
    fingerprint: u64,
}

struct Daemon {
    endpoint: Endpoint,
    thread: JoinHandle<Result<(), ServeError>>,
    /// A local engine over the daemon's own snapshot of the shared key.
    local: QueryEngine,
}

/// Writes `g`, starts a daemon on a fresh socket and cache directory,
/// and has it build the shared key (cold).
fn start_daemon(g: &Graph, dir: &Path) -> Result<Daemon, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let graph_path = dir.join("graph.txt");
    {
        let mut w = BufWriter::new(std::fs::File::create(&graph_path).map_err(|e| e.to_string())?);
        gio::write_edge_list(g, &mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
    }
    let cfg = BuildConfig::default();
    let shared = JobSpec::new(graph_path.to_string_lossy(), ALGORITHM, &cfg);
    let key = CacheKey::new(g, ALGORITHM, &shared.to_config());
    // Size the budget from the shared key's encoded snapshot.
    let snapshot_bytes = {
        let out = registry::find(ALGORITHM)
            .expect("served algorithm is a registry name")
            .build(g, &shared.to_config())
            .map_err(|e| e.to_string())?;
        Snapshot::from_output(key.clone(), &out).encode().len() as u64
    };
    let socket = dir.join("serve.sock");
    let cache_dir = dir.join("cache");
    let mut serve_cfg = ServeConfig::new(&socket, &cache_dir);
    serve_cfg.budget = Some(BUDGET_SNAPSHOTS * snapshot_bytes);
    let resolver: Resolver = Arc::new(|name: &str| registry::find(name));
    let server = Server::bind(serve_cfg, resolver).map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run());
    let started = (|| {
        let mut client = Client::connect(&socket).map_err(|e| e.to_string())?;
        let meta = {
            let _span = Span::new("serve", "Client::build (cold, shared key)");
            client
                .build(&shared, |_, _, _| {})
                .map_err(|e| e.to_string())?
        };
        let backend =
            MappedBackend::open(cache_dir.join(key.file_name())).map_err(|e| e.to_string())?;
        let local = QueryEngine::open(&backend).map_err(|e| e.to_string())?;
        Ok::<_, String>((meta.stream_fingerprint, local))
    })();
    match started {
        Ok((fingerprint, local)) => Ok(Daemon {
            endpoint: Endpoint {
                socket,
                shared,
                fingerprint,
            },
            thread,
            local,
        }),
        Err(e) => {
            let _ = stop(&socket, thread);
            Err(e)
        }
    }
}

/// Asks the daemon on `socket` to shut down and joins its thread.
fn stop(socket: &Path, thread: JoinHandle<Result<(), ServeError>>) -> Result<(), String> {
    let stopped = Client::connect(socket)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("daemon shutdown: {e}"));
    let joined = thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon accept loop: {e}"));
    stopped.and(joined)
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Query,
    Warm,
    Cold,
}

/// A query batch's pairs and the daemon's answers.
type KeptBatch = (Vec<(u64, u64)>, Vec<Option<u64>>);

/// One client's view of its closed loop.
#[derive(Default)]
struct ClientLog {
    /// Completed requests: kind, completion and the host reference mark
    /// taken before their block.
    done: Vec<(Kind, Done, usize)>,
    /// Failed or refused requests, and wrong replies, with a reason.
    failures: Vec<String>,
    /// Kept query batches.
    kept: Vec<KeptBatch>,
}

/// A client connection and where it is in its request cycle; it persists
/// across the measured blocks.
struct ClientState {
    id: usize,
    client: Option<Client>,
    rng: Rng,
    cycle: [Kind; CYCLE],
    next: usize,
    cold_seq: u64,
    queries: usize,
    log: ClientLog,
}

impl ClientState {
    fn connect(d: &Endpoint, id: usize, seed: u64) -> ClientState {
        let mut log = ClientLog::default();
        let client = Client::connect(&d.socket)
            .map_err(|e| log.failures.push(format!("client {id} connect: {e}")))
            .ok();
        let mut cycle = [Kind::Query; CYCLE];
        cycle[0] = Kind::Cold;
        cycle[1..=WARM_PER_CYCLE].fill(Kind::Warm);
        ClientState {
            id,
            client,
            rng: Rng::new(seed ^ (0xC11E_u64 << 16) ^ id as u64),
            cycle,
            next: 0,
            cold_seq: 0,
            queries: 0,
            log,
        }
    }

    /// Runs the closed loop until `end`; completions are stamped relative
    /// to `start` and tagged with the block's reference `mark`.
    fn run_block(&mut self, d: &Endpoint, start: Instant, end: Instant, mark: usize, parent: u64) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        let log = &mut self.log;
        while Instant::now() < end {
            if self.next == 0 {
                for i in (1..CYCLE).rev() {
                    self.cycle.swap(i, self.rng.below(i + 1));
                }
            }
            let next = self.cycle[self.next];
            self.next = (self.next + 1) % CYCLE;
            let t = Instant::now();
            if next != Kind::Query {
                let job = if next == Kind::Cold {
                    self.cold_seq += 1;
                    let mut job = d.shared.clone();
                    // A fresh key: the seed is part of the config digest.
                    job.seed = ((self.id as u64 + 1) << 32) | self.cold_seq;
                    job
                } else {
                    d.shared.clone()
                };
                let name = if next == Kind::Cold {
                    "Client::build (cold)"
                } else {
                    "Client::build (warm)"
                };
                let meta = {
                    let _span = Span::child_of(parent, "serve", name);
                    client.build(&job, |_, _, _| {})
                };
                let done = Done {
                    at_s: secs(start),
                    latency_s: secs(t),
                    factor: 1.0,
                    timed: false,
                };
                match meta {
                    Ok(m) => {
                        let want = if next == Kind::Cold {
                            JobCache::Cold
                        } else {
                            JobCache::Warm
                        };
                        if m.cache != want {
                            log.failures
                                .push(format!("build answered {:?}, expected {want:?}", m.cache));
                        } else if next == Kind::Warm && m.stream_fingerprint != d.fingerprint {
                            log.failures
                                .push("warm build fingerprint differs from the shared key's".into());
                        } else {
                            log.done.push((next, done, mark));
                        }
                    }
                    Err(e) => log.failures.push(format!("build: {e}")),
                }
            } else {
                let pairs: Vec<(u64, u64)> = (0..BATCH)
                    .map(|_| (self.rng.below(N) as u64, self.rng.below(N) as u64))
                    .collect();
                let answers = {
                    let mut span = Span::child_of(parent, "serve", "Client::query");
                    span.count("pairs", BATCH as u64);
                    client.query(&d.shared, &pairs, 0)
                };
                let done = Done {
                    at_s: secs(start),
                    latency_s: secs(t),
                    factor: 1.0,
                    timed: true,
                };
                match answers {
                    Ok(a) => {
                        log.done.push((Kind::Query, done, mark));
                        if self.queries % CHECK_EVERY == 0 {
                            log.kept.push((pairs, a.distances));
                        }
                        self.queries += 1;
                    }
                    Err(e) => log.failures.push(format!("query: {e}")),
                }
            }
        }
    }
}

fn stats_of(d: &Daemon) -> Result<ServiceStats, String> {
    Client::connect(&d.endpoint.socket)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("daemon stats: {e}"))
}

pub fn run(ctx: &Ctx, _probe_layers: bool) -> Pass {
    let mut pass = Pass::default();
    let mut daemons = Vec::new();
    let mut graph = None;
    let ((), setup_s) = common::timed_setups(SETUPS, || {
        let (g, gen_s) = common::generate(N, ctx.seed);
        pass.layer("graph.generate_s", gen_s);
        daemons.push(start_daemon(
            &g,
            &ctx.work.join(format!("daemon{}", daemons.len())),
        ));
        graph = Some(g);
    });
    pass.e2e("setup_s", setup_s);
    let g = graph.expect("at least one set-up ran");
    let daemon = daemons.pop().expect("at least one set-up ran");
    // Earlier set-ups' daemons were only timed; stop them untimed.
    for d in daemons {
        if let Some(d) = pass.op(d) {
            pass.op(stop(&d.endpoint.socket, d.thread));
        }
    }
    let Some(daemon) = pass.op(daemon) else {
        return pass;
    };

    let before = stats_of(&daemon);
    let mut states: Vec<ClientState> = (0..CLIENTS)
        .map(|id| ClientState::connect(&daemon.endpoint, id, ctx.seed))
        .collect();
    let mut pace = Pace::new();
    let deadline = ctx.deadline();
    let start = Instant::now();
    let workload = Span::new("bench", "daemon clients");
    let parent = workload.id();
    // The clients pause between blocks while the host reference is
    // measured on a quiet machine and the peak memory is reset.
    let mut block_peaks = Vec::new();
    while Instant::now() < deadline {
        let mark = pace.mark();
        let reset_ok = sys::reset_peak_rss();
        let end = deadline.min(Instant::now() + Duration::from_secs_f64(BLOCK_S));
        std::thread::scope(|s| {
            for st in states.iter_mut() {
                let d = &daemon.endpoint;
                s.spawn(move || st.run_block(d, start, end, mark, parent));
            }
        });
        if let Some(mb) = sys::peak_rss_mb().filter(|_| reset_ok) {
            block_peaks.push(mb);
        }
    }
    drop(workload);
    let elapsed = secs(start);
    pace.mark();
    // The median block's peak: the memory the mix needs, rather than
    // the rare moment when both clients' cold builds coincide.
    let peak = stats::median(&block_peaks);
    if let Some(q) = stats::quartiles(&block_peaks) {
        println!(
            "peak memory of {} blocks: quartiles {:.2} {:.2} {:.2} MB, highest {:.2} MB",
            block_peaks.len(),
            q.0,
            q.1,
            q.2,
            block_peaks.iter().copied().reduce(f64::max).unwrap_or(0.0)
        );
    }
    let after = stats_of(&daemon);
    let logs: Vec<ClientLog> = states
        .into_iter()
        .map(|mut st| {
            for (_, d, m) in st.log.done.iter_mut() {
                d.factor = pace.factor(*m);
            }
            st.log
        })
        .collect();

    // Latencies of one kind, as measured.
    let by_kind = |k: Kind| -> Vec<&Done> {
        logs.iter()
            .flat_map(|l| {
                l.done
                    .iter()
                    .filter(|(kind, _, _)| *kind == k)
                    .map(|(_, d, _)| d)
            })
            .collect()
    };
    let raw = |ds: &[&Done]| -> Vec<f64> { ds.iter().map(|d| d.latency_s).collect() };
    let cold = by_kind(Kind::Cold);
    let cold_scaled: Vec<f64> = cold.iter().map(|d| d.latency_s * d.factor).collect();
    let (query_s, warm_s, cold_s) = (
        raw(&by_kind(Kind::Query)),
        raw(&by_kind(Kind::Warm)),
        raw(&cold),
    );
    let done: Vec<Done> = logs
        .iter()
        .flat_map(|l| l.done.iter().map(|(_, d, _)| *d))
        .collect();
    for l in &logs {
        pass.attempted += l.done.len() as u64;
        for f in &l.failures {
            pass.op::<(), _>(Err(f.clone()));
        }
    }
    pass.mean_op_s = elapsed * CLIENTS as f64 / done.len().max(1) as f64;
    // A query batch takes milliseconds, too few per two-second window
    // for a p99: the windows are a quarter of the measured part each.
    let figures = common::median_window(
        "daemon requests (latency over query batches)",
        &done,
        ctx.seconds,
        ctx.seconds / DAEMON_WINDOWS as f64,
    );
    pass.loop_figures(figures);
    // The median cold build, as for the build workloads.
    let cold = stats::median(&cold_scaled).unwrap_or(0.0);
    if let Some((q1, q2, q3)) = stats::quartiles(&cold_scaled) {
        println!(
            "cold builds at nominal host speed: fastest {:.6} s, quartiles {q1:.6} {q2:.6} {q3:.6} s",
            cold_scaled.iter().copied().reduce(f64::min).unwrap_or(0.0)
        );
    }
    pass.e2e("build_s", cold);
    pass.e2e("build_geomean_s", cold);
    pass.host_reference(&pace);
    pass.e2e("peak_rss_mb", peak.unwrap_or(0.0));
    println!(
        "daemon requests: {} query batches of {BATCH}, {} warm builds, {} cold builds over {CLIENTS} connections",
        query_s.len(),
        warm_s.len(),
        cold_s.len()
    );

    let median_us = |xs: &[f64]| stats::median(xs).unwrap_or(0.0) * 1e6;
    let rtt_p50 = median_us(&query_s);
    pass.layer("serve.query_rtt_us.p50", rtt_p50);
    pass.layer(
        "serve.query_rtt_us.p99",
        stats::percentile(&query_s, 99.0).unwrap_or(0.0) * 1e6,
    );
    pass.layer("serve.build_warm_us.p50", median_us(&warm_s));
    pass.layer("serve.build_cold_ms.p50", median_us(&cold_s) / 1e3);
    match (before, after) {
        (Ok(b), Ok(a)) => report_counters(&mut pass, &b, &a),
        (b, a) => {
            pass.op(b);
            pass.op(a);
        }
    }
    check_answers(&mut pass, &daemon, &g, &logs, rtt_p50);
    pass.op(stop(&daemon.endpoint.socket, daemon.thread));
    pass
}

fn report_counters(pass: &mut Pass, b: &ServiceStats, a: &ServiceStats) {
    let hits = a.cache_hits - b.cache_hits;
    let misses = a.cache_misses - b.cache_misses;
    pass.layer("serve.cache_hits", hits as f64);
    pass.layer("serve.cache_misses", misses as f64);
    pass.layer(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    pass.layer(
        "serve.cache_stores",
        (a.cache_stores - b.cache_stores) as f64,
    );
    pass.layer(
        "serve.evictions",
        (a.cache_evictions - b.cache_evictions) as f64,
    );
    pass.layer("serve.busy", (a.jobs_rejected - b.jobs_rejected) as f64);
    pass.layer(
        "serve.engine_reuses",
        (a.engine_reuses - b.engine_reuses) as f64,
    );
    println!(
        "daemon counters: {hits} hits, {misses} misses, {} stores, {} evictions, {} refused",
        a.cache_stores - b.cache_stores,
        a.cache_evictions - b.cache_evictions,
        a.jobs_rejected - b.jobs_rejected
    );
}

/// Kept batches re-answered by a local engine on the same snapshot; the
/// first few also checked against exact BFS. The local batch time gives
/// the daemon's per-batch overhead, which includes the wait for the other
/// connection's batch on the shared engine.
fn check_answers(pass: &mut Pass, d: &Daemon, g: &Graph, logs: &[ClientLog], rtt_p50_us: f64) {
    let _span = Span::new("bench", "check answers");
    let mut local_s = Vec::new();
    let mut bfs_s = Vec::new();
    for (i, (pairs, answers)) in logs.iter().flat_map(|l| &l.kept).enumerate() {
        let native: Vec<(VertexId, VertexId)> = pairs
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        let t = Instant::now();
        let local: Vec<Option<u64>> = {
            let _span = Span::new("oracle", "QueryEngine::distances");
            d.local
                .distances(&native)
                .into_iter()
                .map(|c| c.value)
                .collect()
        };
        local_s.push(secs(t));
        pass.check(&local == answers, || {
            format!("daemon answered {answers:?} for {pairs:?}; a local engine on the same snapshot says {local:?}")
        });
        if i < STRETCH_BATCHES {
            for (&(u, v), &dh) in native.iter().zip(answers) {
                bfs_s.push(check_stretch(
                    pass,
                    "daemon query",
                    g,
                    u,
                    &[(v, dh)],
                    d.local.guarantee(),
                ));
            }
        }
    }
    let local_us = stats::median(&local_s).unwrap_or(0.0) * 1e6;
    pass.layer("serve.overhead_us", rtt_p50_us - local_us);
    pass.layer(
        "oracle.batch_qps",
        BATCH as f64 / (local_us * 1e-6).max(1e-12),
    );
    pass.layer(
        "graph.bfs_on_g_us",
        stats::median(&bfs_s).unwrap_or(0.0) * 1e6,
    );
}
