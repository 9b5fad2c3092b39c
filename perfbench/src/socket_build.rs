//! `socket-build`: the two shardable constructions over the socket
//! transport, with loopback `usnae-worker` children — the same builds as
//! `registry-build`, but with the work put through `workers` frames and
//! TCP.

use std::collections::BTreeMap;
use std::time::Instant;

use perfbench::host::Pace;
use perfbench::metrics::SOCKET_ALGORITHMS;
use perfbench::stats;
use perfbench::sys::{self, ChildPeakSampler, ProcStat};
use perfbench::trace::Span;
use usnae_baselines::registry;
use usnae_core::api::{BuildConfig, Construction, PartitionPolicy, TransportKind};
use usnae_graph::Graph;
use usnae_workers::{ShardInit, WorkerPool};

use crate::common::{self, secs, Ctx, Pass};
use crate::registry_build::{self, probed_build, Samples, GRAPHS};

/// Shards, one loopback worker child each.
const SHARDS: usize = 2;

/// Rounds over the construction set, each on the next of the
/// `registry-build` inputs, at least this many, so that every graph has a
/// median.
const MIN_ROUNDS: usize = GRAPHS;

/// Set-ups timed per run: generating the inputs plus the in-process
/// reference builds the socket builds are checked against.
const SETUPS: usize = 5;

/// Pool spawns timed by the `workers.pool_spawn_s` probe.
const SPAWN_PROBES: usize = 3;

struct Setup {
    graphs: Vec<Graph>,
    gen_s: f64,
    /// In-process stream fingerprint per construction and graph.
    reference: BTreeMap<(&'static str, usize), u64>,
}

fn constructions() -> Vec<Box<dyn Construction>> {
    SOCKET_ALGORITHMS
        .iter()
        .map(|a| registry::find(a).expect("socket algorithms are registry names"))
        .collect()
}

pub fn run(ctx: &Ctx, probe_layers: bool) -> Pass {
    let mut pass = Pass::default();
    let constructions = constructions();
    let inproc_cfg = BuildConfig::default();
    let mut inproc: BTreeMap<&str, Samples> = BTreeMap::new();
    let seeds = common::graph_seeds(ctx.seed, GRAPHS);
    let (setup, setup_s) = common::timed_setups(SETUPS, || {
        let (mut graphs, mut gen_s) = (Vec::new(), 0.0);
        let mut reference = BTreeMap::new();
        for (k, &seed) in seeds.iter().enumerate() {
            let (g, s) = common::generate(registry_build::N, seed);
            gen_s += s / GRAPHS as f64;
            for c in &constructions {
                let s = inproc.entry(c.name()).or_default();
                let built = probed_build(c.as_ref(), &g, &inproc_cfg, "registry", s);
                if let Some(out) = pass.op(built.map_err(|e| format!("in-process reference: {e}")))
                {
                    reference.insert((c.name(), k), out.stream_fingerprint());
                }
            }
            graphs.push(g);
        }
        Setup {
            graphs,
            gen_s,
            reference,
        }
    });
    pass.e2e("setup_s", setup_s);
    pass.layer("graph.generate_s", setup.gen_s);
    for (name, s) in &inproc {
        registry_build::report_samples(&mut pass, name, s);
    }

    let cfg = BuildConfig {
        shards: SHARDS,
        partition: PartitionPolicy::DegreeBalanced,
        transport: TransportKind::Socket,
        ..BuildConfig::default()
    };
    // Wall times as measured, with the host reference mark taken before
    // their round, per construction and graph.
    let mut walls: BTreeMap<(&str, usize), Vec<(f64, usize)>> = BTreeMap::new();
    let mut pace = Pace::new();
    let mut child_cpu: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut wire: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut builds = 0usize;
    let (mut rounds, mut rounds_s) = (0usize, 0.0);
    let deadline = ctx.deadline();
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let k = rounds % GRAPHS;
        let mark = pace.mark();
        let round = Instant::now();
        for c in &constructions {
            let name = c.name();
            let before = ProcStat::now();
            let t = Instant::now();
            let out = {
                let mut span = Span::new("workers", format!("{name}::build over sockets"));
                let out = c.build(&setup.graphs[k], &cfg);
                if let Some(m) = out.as_ref().ok().and_then(|o| o.stats.messages.as_ref()) {
                    span.count("rounds", m.rounds);
                    span.count("messages", m.messages);
                    span.count("bytes", m.bytes);
                }
                out
            };
            let wall = secs(t);
            let cpu = ProcStat::now().since(&before).children_cpu_s;
            let Some(out) = pass.op(out.map_err(|e| format!("{name} over sockets: {e}"))) else {
                continue;
            };
            builds += 1;
            walls.entry((name, k)).or_default().push((wall, mark));
            child_cpu.entry(name).or_default().push(cpu);
            let transport = out.stats.transport;
            pass.check(transport == TransportKind::Socket, || {
                format!("{name}: ran on the {transport:?} transport, not over sockets")
            });
            match &out.stats.messages {
                Some(m) => {
                    if k == 0 {
                        wire.insert(name, (m.rounds, m.messages, m.bytes));
                    }
                }
                None => pass.check(false, || {
                    format!("{name}: socket build reported no message statistics")
                }),
            }
            let fp = out.stream_fingerprint();
            let want = setup.reference.get(&(name, k)).copied();
            pass.check(want == Some(fp), || {
                format!("{name} on graph {k}: socket fingerprint {fp:016x} differs from in-process {want:016x?}")
            });
        }
        rounds_s += secs(round);
        rounds += 1;
    }
    pace.mark();

    // Memory comes from one more build per construction after the timed
    // loop, so that the timed builds run without the memory probes.
    let (mut peak_mb, mut child_peak_mb) = (0.0f64, 0.0f64);
    let mut children_seen = 0;
    for c in &constructions {
        let name = c.name();
        let sampler = ChildPeakSampler::start();
        let reset_ok = sys::reset_peak_rss();
        let out = {
            let _span = Span::new("workers", format!("{name}::build over sockets (memory)"));
            c.build(&setup.graphs[0], &cfg)
        };
        let parent_mb = sys::peak_rss_mb().filter(|_| reset_ok);
        let (children, child_mb) = sampler.finish();
        let Some(out) = pass.op(out.map_err(|e| format!("{name} over sockets: {e}"))) else {
            continue;
        };
        let (fp, want) = (
            out.stream_fingerprint(),
            setup.reference.get(&(name, 0)).copied(),
        );
        pass.check(want == Some(fp), || {
            format!("{name}: socket fingerprint {fp:016x} differs from in-process {want:016x?}")
        });
        children_seen = children_seen.max(children);
        child_peak_mb = child_peak_mb.max(child_mb);
        match parent_mb {
            Some(mb) => peak_mb = peak_mb.max(mb + child_mb),
            None => eprintln!("perfbench: peak RSS reset failed; socket peak unresolved"),
        }
    }
    pass.check(children_seen >= SHARDS, || {
        format!("saw {children_seen} worker children, expected {SHARDS}")
    });

    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    let repeats: Vec<(&str, Vec<Vec<f64>>)> = SOCKET_ALGORITHMS
        .iter()
        .map(|&name| {
            let per_graph = (0..GRAPHS)
                .filter_map(|k| walls.get(&(name, k)))
                .map(|w| w.iter().map(|&(s, i)| s * pace.factor(i)).collect())
                .collect();
            (name, per_graph)
        })
        .collect();
    let over = format!("{GRAPHS} graphs");
    let (build_s, geomean_s, figures) = common::build_set("socket builds", &over, &repeats);
    pass.e2e("build_s", build_s);
    pass.e2e("build_geomean_s", geomean_s);
    pass.loop_figures(figures);
    pass.mean_op_s = rounds_s / builds.max(1) as f64;
    pass.e2e("peak_rss_mb", peak_mb);
    println!(
        "peak_rss_mb on socket-build: benchmark process VmHWM after a reset before the build, plus the \
         sum of the worker children's VmHWM sampled every 2 ms, in one untimed build per construction \
         after the timed ones; maximum over constructions"
    );

    let (mut w_rounds, mut w_messages, mut w_bytes) = (0, 0, 0);
    for (name, &(r, m, b)) in &wire {
        w_rounds += r;
        w_messages += m;
        w_bytes += b;
        println!(
            "  {name:<20} {r} rounds, {m} messages, {:.1} MB on the wire",
            b as f64 / 1e6
        );
    }
    pass.layer("workers.rounds", w_rounds as f64);
    pass.layer("workers.messages", w_messages as f64);
    pass.layer("workers.bytes", w_bytes as f64);
    pass.layer(
        "workers.child_cpu_s",
        child_cpu.values().map(|c| med(c)).sum(),
    );
    pass.layer("workers.child_peak_rss_mb", child_peak_mb);
    for name in SOCKET_ALGORITHMS {
        let base = inproc.get(name).map_or(0.0, |s| med(&s.wall_s));
        let raw: Vec<f64> = (0..GRAPHS)
            .filter_map(|k| walls.get(&(name, k)))
            .flatten()
            .map(|&(s, _)| s)
            .collect();
        if base > 0.0 && !raw.is_empty() {
            pass.layer(format!("workers.{name}.slowdown"), med(&raw) / base);
        }
    }
    pass.host_reference(&pace);
    if probe_layers {
        let spawn_s: Vec<f64> = (0..SPAWN_PROBES)
            .filter_map(|_| probe_pool_spawn(&mut pass, &setup.graphs[0]))
            .collect();
        pass.layer("workers.pool_spawn_s", med(&spawn_s));
    }
    pass
}

/// Time to spawn and initialise a socket pool over `g` in two range
/// shards; the pool is shut down untimed.
fn probe_pool_spawn(pass: &mut Pass, g: &Graph) -> Option<f64> {
    let n = g.num_vertices();
    let inits: Vec<ShardInit> = (0..SHARDS)
        .map(|i| {
            let (start, end) = (i * n / SHARDS, (i + 1) * n / SHARDS);
            let mut offsets = vec![0];
            let mut adjacency = Vec::new();
            for v in start..end {
                adjacency.extend_from_slice(g.neighbors(v));
                offsets.push(adjacency.len());
            }
            ShardInit {
                shard: i,
                num_shards: SHARDS,
                num_vertices: n,
                start,
                end,
                offsets,
                adjacency,
            }
        })
        .collect();
    let t = Instant::now();
    let pool = {
        let _span = Span::new("workers", "WorkerPool::new(socket)");
        WorkerPool::new(TransportKind::Socket, inits)
    };
    let spawn_s = secs(t);
    let pool = pass.op(pool.map_err(|e| format!("socket pool spawn: {e}")))?;
    pass.op(pool
        .shutdown()
        .map_err(|e| format!("socket pool shutdown: {e}")))?;
    Some(spawn_s)
}
