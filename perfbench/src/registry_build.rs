//! `registry-build`: every registry construction, in-process, on one
//! seeded graph — the load where `engine`, `registry` and `congest` do
//! nearly all the work.

use std::collections::BTreeMap;
use std::time::Instant;

use perfbench::host::Pace;
use perfbench::metrics::{ALGORITHMS, CONGEST_ALGORITHMS};
use perfbench::stats;
use perfbench::sys::{self, ProcStat};
use perfbench::trace::Span;
use usnae_baselines::registry;
use usnae_core::api::{BuildConfig, BuildOutput, Construction};
use usnae_core::engine::Engine;
use usnae_graph::{Graph, VertexId};

use crate::common::{self, check_stretch, secs, Ctx, Pass, Rng};

/// Vertices of the input graph.
pub const N: usize = 1_000;

/// Input graphs per run: the seed's own and more drawn from it. Each
/// construction's time is the mean over the graphs of its median, so that
/// one graph's quirks do not decide a run; the cost of a build and of
/// generating its input varies by some 5 % and 50 % between seeds.
pub const GRAPHS: usize = 4;

/// Rounds over the construction set, each on the next graph, at least
/// this many, so that every graph has a median even when a round
/// outlasts the measured window.
const MIN_ROUNDS: usize = GRAPHS;

/// Set-ups timed per run (generating the graphs, about 2 ms).
const SETUPS: usize = 51;

/// Seeded sources of the stretch check, per construction.
const CHECK_SOURCES: usize = 3;

/// Per-construction samples of one run.
#[derive(Default)]
pub struct Samples {
    pub wall_s: Vec<f64>,
    pub sys_s: Vec<f64>,
    pub minflt: Vec<f64>,
    /// Peak RSS per call in MB; `None` when the peak reset did not take.
    pub peak_mb: Vec<Option<f64>>,
    pub phase0_s: Vec<f64>,
}

impl Samples {
    /// Appends `other`'s samples.
    pub fn extend(&mut self, other: &Samples) {
        self.wall_s.extend_from_slice(&other.wall_s);
        self.sys_s.extend_from_slice(&other.sys_s);
        self.minflt.extend_from_slice(&other.minflt);
        self.peak_mb.extend_from_slice(&other.peak_mb);
        self.phase0_s.extend_from_slice(&other.phase0_s);
    }
}

/// Builds `c` once with per-call resource probes around it.
pub fn probed_build(
    c: &dyn Construction,
    g: &Graph,
    cfg: &BuildConfig,
    layer: &'static str,
    samples: &mut Samples,
) -> Result<BuildOutput, String> {
    let reset_ok = sys::reset_peak_rss();
    let before = ProcStat::now();
    let t = Instant::now();
    let out = {
        let mut span = Span::new(layer, format!("{}::build", c.name()));
        let out = c.build(g, cfg);
        if let Ok(o) = &out {
            span.count("edges", o.num_edges() as u64);
        }
        out
    };
    let wall = secs(t);
    let delta = ProcStat::now().since(&before);
    let peak = sys::peak_rss_mb();
    let out = out.map_err(|e| format!("{}: {e}", c.name()))?;
    samples.wall_s.push(wall);
    samples.sys_s.push(delta.sys_s);
    samples.minflt.push(delta.minflt as f64);
    samples.peak_mb.push(peak.filter(|_| reset_ok));
    samples
        .phase0_s
        .push(out.stats.phase0().map_or(0.0, |d| d.as_secs_f64()));
    Ok(out)
}

/// Writes the `registry.<algo>.*` medians of `samples`.
pub fn report_samples(pass: &mut Pass, algo: &str, s: &Samples) {
    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    pass.layer(format!("registry.{algo}.wall_s"), med(&s.wall_s));
    pass.layer(format!("registry.{algo}.sys_s"), med(&s.sys_s));
    pass.layer(format!("registry.{algo}.minflt"), med(&s.minflt));
    pass.layer(format!("registry.{algo}.phase0_s"), med(&s.phase0_s));
    // An unresolved peak is reported as -1, never as an inherited peak.
    let peaks: Option<Vec<f64>> = s.peak_mb.iter().copied().collect();
    let peak = peaks.map_or(-1.0, |p| med(&p));
    pass.layer(format!("registry.{algo}.peak_rss_mb"), peak);
}

/// Each construction's build times per graph, scaled to nominal host
/// speed by the reference marks around the round they ran in.
fn scaled_repeats(
    samples: &BTreeMap<(&'static str, usize), Samples>,
    marks: &BTreeMap<(&str, usize), Vec<usize>>,
    pace: &Pace,
) -> Vec<(&'static str, Vec<Vec<f64>>)> {
    ALGORITHMS
        .iter()
        .map(|&name| {
            let per_graph = (0..GRAPHS)
                .filter_map(|k| {
                    let (s, m) = (samples.get(&(name, k))?, marks.get(&(name, k))?);
                    Some(
                        s.wall_s
                            .iter()
                            .zip(m)
                            .map(|(w, &i)| w * pace.factor(i))
                            .collect::<Vec<f64>>(),
                    )
                })
                .filter(|r| !r.is_empty())
                .collect();
            (name, per_graph)
        })
        .collect()
}

/// Layer a construction's build time belongs to.
pub fn layer_of(algo: &str) -> &'static str {
    if CONGEST_ALGORITHMS.contains(&algo) {
        "congest"
    } else {
        "registry"
    }
}

pub fn run(ctx: &Ctx, probe_layers: bool) -> Pass {
    let mut pass = Pass::default();
    let seeds = common::graph_seeds(ctx.seed, GRAPHS);
    let (inputs, setup_s) = common::timed_setups(SETUPS, || {
        seeds
            .iter()
            .map(|&seed| common::generate(N, seed))
            .collect::<Vec<_>>()
    });
    pass.e2e("setup_s", setup_s);
    pass.layer(
        "graph.generate_s",
        inputs.iter().map(|(_, s)| s).sum::<f64>() / GRAPHS as f64,
    );
    let graphs: Vec<Graph> = inputs.into_iter().map(|(g, _)| g).collect();

    let constructions = registry::all();
    let names: Vec<&str> = constructions.iter().map(|c| c.name()).collect();
    pass.check(names == ALGORITHMS, || {
        format!("registry lists {names:?}, the benchmark expects {ALGORITHMS:?}")
    });
    let cfg = BuildConfig::default();

    // Per construction and graph index.
    let mut samples: BTreeMap<(&str, usize), Samples> = BTreeMap::new();
    // The host reference mark taken before the round of each sample.
    let mut marks: BTreeMap<(&str, usize), Vec<usize>> = BTreeMap::new();
    let mut pace = Pace::new();
    let mut fingerprints: BTreeMap<(&str, usize), u64> = BTreeMap::new();
    let mut last: BTreeMap<(&str, usize), BuildOutput> = BTreeMap::new();
    let mut builds = 0usize;
    let (mut rounds, mut rounds_s) = (0usize, 0.0);
    let deadline = ctx.deadline();
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let k = rounds % GRAPHS;
        let mark = pace.mark();
        let round = Instant::now();
        for c in &constructions {
            let name = c.name();
            let s = samples.entry((name, k)).or_default();
            if let Some(out) = pass.op(probed_build(c.as_ref(), &graphs[k], &cfg, layer_of(name), s))
            {
                marks.entry((name, k)).or_default().push(mark);
                builds += 1;
                let fp = out.stream_fingerprint();
                let first = *fingerprints.entry((name, k)).or_insert(fp);
                pass.check(fp == first, || {
                    format!("{name} on graph {k}: stream fingerprint {fp:016x} differs from {first:016x} of an earlier repeat")
                });
                last.insert((name, k), out);
            }
        }
        rounds_s += secs(round);
        rounds += 1;
    }
    pace.mark();

    let repeats = scaled_repeats(&samples, &marks, &pace);
    let (build_s, geomean_s, figures) =
        common::build_set("registry builds", &format!("{GRAPHS} graphs"), &repeats);
    pass.e2e("build_s", build_s);
    pass.e2e("build_geomean_s", geomean_s);
    pass.loop_figures(figures);
    pass.mean_op_s = rounds_s / builds.max(1) as f64;
    let peaks: Vec<f64> = samples
        .values()
        .flat_map(|s| s.peak_mb.iter().flatten().copied())
        .collect();
    let peak = peaks
        .into_iter()
        .reduce(f64::max)
        .or_else(sys::peak_rss_mb)
        .unwrap_or(0.0);
    pass.e2e("peak_rss_mb", peak);
    for name in ALGORITHMS {
        let mut all = Samples::default();
        for k in 0..GRAPHS {
            if let Some(s) = samples.get(&(name, k)) {
                all.extend(s);
            }
        }
        report_samples(&mut pass, name, &all);
    }
    pass.host_reference(&pace);

    check_outputs(&mut pass, &graphs, &last, ctx.seed);
    if probe_layers {
        probe_engine(&mut pass, &graphs[0], &cfg);
    }
    pass
}

/// Stretch on a seeded sample of pairs of each graph's outputs, and the
/// CONGEST counters summed over the graphs.
fn check_outputs(
    pass: &mut Pass,
    graphs: &[Graph],
    outputs: &BTreeMap<(&str, usize), BuildOutput>,
    seed: u64,
) {
    let _span = Span::new("bench", "check outputs");
    let mut rng = Rng::new(seed ^ 0xC4EC);
    let mut bfs_s = Vec::new();
    let mut violations = 0;
    let mut congest: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (&(name, k), out) in outputs {
        let g = &graphs[k];
        for _ in 0..CHECK_SOURCES {
            let source: VertexId = rng.below(g.num_vertices());
            let answers: Vec<_> = out
                .emulator
                .distances_from(source)
                .into_iter()
                .enumerate()
                .collect();
            bfs_s.push(check_stretch(
                pass,
                name,
                g,
                source,
                &answers,
                (out.alpha(), out.beta()),
            ));
        }
        if CONGEST_ALGORITHMS.contains(&name) {
            match &out.congest {
                Some(c) => {
                    let sum = congest.entry(name).or_default();
                    sum.0 += c.metrics.rounds as u64;
                    sum.1 += c.metrics.messages as u64;
                    violations += c.knowledge_violations;
                }
                None => pass.check(false, || format!("{name}: no CONGEST statistics")),
            }
        }
    }
    for (name, (rounds, messages)) in congest {
        pass.layer(format!("congest.{name}.rounds"), rounds as f64);
        pass.layer(format!("congest.{name}.messages"), messages as f64);
    }
    pass.check(violations == 0, || {
        format!("{violations} CONGEST knowledge violations")
    });
    pass.layer("congest.knowledge_violations", violations as f64);
    pass.layer(
        "graph.bfs_on_g_us",
        stats::median(&bfs_s).unwrap_or(0.0) * 1e6,
    );
}

/// Direct `Engine::inproc` calls from every vertex at the first-phase
/// radius: the exploration primitives the constructions are built from.
fn probe_engine(pass: &mut Pass, g: &Graph, cfg: &BuildConfig) {
    let depth = cfg
        .centralized_params()
        .expect("default parameters are valid")
        .delta(0);
    let sources: Vec<VertexId> = (0..g.num_vertices()).collect();
    let engine = Engine::inproc(g, cfg.threads);

    let reset_ok = sys::reset_peak_rss();
    let before = ProcStat::now();
    let t = Instant::now();
    let explorations = {
        let mut span = Span::new("engine", "Engine::explorations");
        let ex = engine.explorations(&sources, depth);
        span.count("sources", ex.len() as u64);
        ex
    };
    pass.layer("engine.explorations_s", secs(t));
    pass.layer(
        "engine.explorations_minflt",
        ProcStat::now().since(&before).minflt as f64,
    );
    let peak = sys::peak_rss_mb().filter(|_| reset_ok);
    pass.layer("engine.explorations_peak_rss_mb", peak.unwrap_or(-1.0));
    drop(explorations);

    let t = Instant::now();
    let balls = {
        let mut span = Span::new("engine", "Engine::balls");
        let b = engine.balls(&sources, depth);
        span.count("entries", b.iter().map(Vec::len).sum::<usize>() as u64);
        b
    };
    pass.layer("engine.balls_s", secs(t));
    pass.layer(
        "engine.ball_entries",
        balls.iter().map(Vec::len).sum::<usize>() as f64,
    );
    drop(balls);

    let t = Instant::now();
    {
        let mut span = Span::new("engine", "Engine::ruling_set");
        let rs = engine.ruling_set(&sources, depth);
        span.count("rulers", rs.len() as u64);
    }
    pass.layer("engine.ruling_set_s", secs(t));
    pass.op(engine
        .finish()
        .map_err(|e| format!("in-process engine teardown: {e}")));
}
