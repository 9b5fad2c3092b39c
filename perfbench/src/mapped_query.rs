//! `mapped-query`: single `QueryEngine::distance` calls from one caller
//! against a mapped codec-v4 snapshot — the path `usnae query --mapped`
//! serves. It isolates `oracle` and `cache`: tree-LRU hits set the median,
//! SSSP tree builds set the tail.

use std::time::{Duration, Instant};

use perfbench::host::Pace;
use perfbench::stats;
use perfbench::sys;
use perfbench::trace::Span;
use usnae_baselines::registry;
use usnae_core::api::{BuildConfig, MappedBackend, QueryEngine};
use usnae_core::cache::{CacheKey, ConstructionCache, Snapshot};
use usnae_graph::{Dist, Graph, VertexId};

use crate::common::{self, check_stretch, secs, Ctx, Done, Pass, Rng};

/// Vertices of the input graph.
pub const N: usize = 2_000;

/// The construction whose emulator is served.
pub const ALGORITHM: &str = "centralized";

/// Hot sources: fewer than the engine's 64-tree LRU, so they stay cached.
const HOT: usize = 32;

/// Engines opened on the snapshot. The loop moves to the next engine at
/// every host reference mark, so that each window spreads over all of
/// them: an engine's tree cache is a `HashMap` with its own random hash
/// keys, and with a single engine the median lookup of a whole run read
/// about 0.4 µs in some processes and 0.6 µs in most.
const ENGINES: usize = 4;

/// Share of queries whose source is hot; the rest are uniform.
const HOT_SHARE: f64 = 2.0 / 3.0;

/// Set-ups timed per run.
const SETUPS: usize = 5;

/// Distinct query sources whose answers are checked against exact BFS.
const CHECK_SOURCES: usize = 16;

/// Queries of the un-instrumented pass that measures peak memory.
const PEAK_QUERIES: usize = 20_000;

/// Seconds of back-to-back builds of the served construction after the
/// query loop, whose median is `build_s`.
const BUILD_BLOCK_S: f64 = 2.0;

/// Seconds between two host reference marks in the query loop and the
/// build block.
const MARK_EVERY_S: f64 = 0.25;

/// Pairs in the `oracle.batch_qps` probe batch.
const BATCH: usize = 1024;

/// Everything the measured loop needs.
pub struct Served {
    pub g: Graph,
    /// [`ENGINES`] engines on the snapshot, hot set loaded.
    pub engines: Vec<QueryEngine>,
    pub backend: MappedBackend,
    /// Wall time of the set-up's build of `ALGORITHM`.
    pub build_s: f64,
}

/// Builds `ALGORITHM` on `g`, stores it as a snapshot under `dir` and
/// opens it mapped; records the `cache` and `oracle` set-up timings.
pub fn serve_snapshot(pass: &mut Pass, g: Graph, dir: &std::path::Path) -> Result<Served, String> {
    let cfg = BuildConfig::default();
    let construction = registry::find(ALGORITHM).expect("served algorithm is a registry name");
    let t = Instant::now();
    let out = {
        let _span = Span::new("registry", format!("{ALGORITHM}::build"));
        construction.build(&g, &cfg).map_err(|e| e.to_string())?
    };
    let build_s = secs(t);

    let t = Instant::now();
    let path = {
        let _span = Span::new("cache", "Snapshot::from_output + ConstructionCache::store");
        let key = CacheKey::new(&g, construction.name(), &cfg);
        ConstructionCache::new(dir)
            .store(&Snapshot::from_output(key, &out))
            .map_err(|e| e.to_string())?
    };
    pass.layer("cache.encode_store_s", secs(t));
    pass.layer(
        "cache.snapshot_bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
    );

    let t = Instant::now();
    let backend = {
        let _span = Span::new("cache", "MappedBackend::open");
        MappedBackend::open(&path).map_err(|e| e.to_string())?
    };
    pass.layer("cache.map_open_s", secs(t));
    let (fp, want) = (
        backend.snapshot().stream_fingerprint(),
        out.stream_fingerprint(),
    );
    pass.check(fp == want, || {
        format!("mapped snapshot fingerprint {fp:016x} differs from the build's {want:016x}")
    });

    let mut engines = Vec::with_capacity(ENGINES);
    for _ in 0..ENGINES {
        let t = Instant::now();
        engines.push({
            let _span = Span::new("oracle", "QueryEngine::open");
            QueryEngine::open(&backend).map_err(|e| e.to_string())?
        });
        pass.layer("oracle.open_s", secs(t));
    }
    Ok(Served {
        g,
        engines,
        backend,
        build_s,
    })
}

pub fn run(ctx: &Ctx, probe_layers: bool) -> Pass {
    let mut pass = Pass::default();
    let mut rng = Rng::new(ctx.seed);
    let hot: Vec<VertexId> = (0..HOT).map(|_| rng.below(N)).collect();
    let mut build_s = Vec::new();
    let (served, setup_s) = common::timed_setups(SETUPS, || {
        let (g, gen_s) = common::generate(N, ctx.seed);
        pass.layer("graph.generate_s", gen_s);
        let served = serve_snapshot(&mut pass, g, &ctx.work.join("cache"));
        if let Ok(s) = &served {
            build_s.push(s.build_s);
            // Fill the tree caches with the hot set before timing.
            for engine in &s.engines {
                for (i, &u) in hot.iter().enumerate() {
                    engine.distance(u, hot[(i + 1) % HOT]);
                }
            }
        }
        served
    });
    pass.e2e("setup_s", setup_s);
    let Some(mut served) = pass.op(served.map_err(|e| format!("mapped set-up: {e}"))) else {
        return pass;
    };
    let totals = |engines: &[QueryEngine]| {
        engines.iter().fold((0, 0), |(b, h), e| {
            let s = e.stats();
            (b + s.tree_builds, h + s.cache_hits)
        })
    };
    let traced = perfbench::trace::recording();
    let mut next_pair = || {
        let u = if rng.unit() < HOT_SHARE {
            hot[rng.below(HOT)]
        } else {
            rng.below(N)
        };
        (u, rng.below(N))
    };
    // Answers are kept for the first few distinct sources only: they are
    // what the stretch check reads, and keeping all would grow the heap.
    let mut checked: Vec<VertexId> = Vec::new();
    let mut answers: Vec<(VertexId, VertexId, Option<Dist>)> = Vec::new();
    let mut done = Vec::new();
    // The host reference mark taken before each operation's block.
    let mut op_marks = Vec::new();
    let mut pace = Pace::new();
    let (mut mark, mut next_mark) = (pace.mark(), Instant::now());
    let (mut hit_s, mut miss_s) = (Vec::new(), Vec::new());
    let before = totals(&served.engines);
    let deadline = ctx.deadline();
    let start = Instant::now();
    while Instant::now() < deadline {
        if Instant::now() >= next_mark {
            mark = pace.mark();
            next_mark = Instant::now() + Duration::from_secs_f64(MARK_EVERY_S);
        }
        let engine = &served.engines[mark % ENGINES];
        let (u, v) = next_pair();
        let builds = if traced {
            engine.stats().tree_builds
        } else {
            0
        };
        let t = Instant::now();
        let d = if traced {
            let _span = Span::new("oracle", "QueryEngine::distance");
            engine.distance(u, v)
        } else {
            engine.distance(u, v)
        };
        let latency_s = secs(t);
        if traced {
            if engine.stats().tree_builds > builds {
                miss_s.push(latency_s);
            } else {
                hit_s.push(latency_s);
            }
        }
        done.push(Done {
            at_s: secs(start),
            latency_s,
            factor: 1.0,
            timed: true,
        });
        op_marks.push(mark);
        if !checked.contains(&u) && checked.len() < CHECK_SOURCES {
            checked.push(u);
        }
        if checked.contains(&u) {
            answers.push((u, v, d.value));
        }
    }
    let elapsed = secs(start);
    pace.mark();
    for (d, &m) in done.iter_mut().zip(&op_marks) {
        d.factor = pace.factor(m);
    }
    let after = totals(&served.engines);
    pass.attempted += done.len() as u64;
    pass.mean_op_s = elapsed / done.len().max(1) as f64;
    pass.loop_figures(common::median_window(
        "mapped distance queries",
        &done,
        ctx.seconds,
        common::WINDOW_S,
    ));

    // Peak memory of the same query mix on one engine, without the loop's
    // bookkeeping.
    let queries = done.len();
    drop((done, op_marks));
    served.engines.truncate(1);
    let engine = &served.engines[0];
    let reset_ok = sys::reset_peak_rss();
    for _ in 0..PEAK_QUERIES {
        let (u, v) = next_pair();
        std::hint::black_box(engine.distance(u, v));
    }
    let peak = sys::peak_rss_mb().filter(|_| reset_ok);
    pass.e2e("peak_rss_mb", peak.unwrap_or(0.0));
    if peak.is_none() {
        eprintln!("perfbench: peak RSS reset failed; peak_rss_mb unresolved");
    }

    let builds = after.0 - before.0;
    let hits = after.1 - before.1;
    pass.layer("oracle.tree_builds", builds as f64);
    pass.layer("oracle.hits", hits as f64);
    pass.layer("oracle.hit_ratio", hits as f64 / queries.max(1) as f64);
    let tree_us = stats::median(&miss_s).unwrap_or(0.0) * 1e6;
    pass.layer("oracle.hit_us", stats::median(&hit_s).unwrap_or(0.0) * 1e6);
    pass.layer("oracle.tree_build_us", tree_us);
    pass.layer(
        "oracle.tree_ns_per_edge",
        tree_us * 1e3 / engine.num_edges().max(1) as f64,
    );
    println!(
        "{queries} queries: {hits} tree-cache hits, {builds} tree builds over {} emulator edges",
        engine.num_edges()
    );

    // The served construction's median build, from builds made after the
    // loop, so that no build runs inside the query loop.
    let construction = registry::find(ALGORITHM).expect("served algorithm is a registry name");
    let mut block = Vec::new();
    let block_end = Instant::now() + Duration::from_secs_f64(BUILD_BLOCK_S);
    let mut next_mark = Instant::now();
    while Instant::now() < block_end {
        if Instant::now() >= next_mark {
            mark = pace.mark();
            next_mark = Instant::now() + Duration::from_secs_f64(MARK_EVERY_S);
        }
        let t = Instant::now();
        let out = {
            let _span = Span::new("registry", format!("{ALGORITHM}::build"));
            construction.build(&served.g, &BuildConfig::default())
        };
        let wall = secs(t);
        if let Some(out) = pass.op(out) {
            build_s.push(wall);
            block.push((wall, mark));
            let (fp, want) = (
                out.stream_fingerprint(),
                served.backend.snapshot().stream_fingerprint(),
            );
            pass.check(fp == want, || {
                format!("{ALGORITHM}: rebuild fingerprint {fp:016x} differs from the served {want:016x}")
            });
        }
    }
    pace.mark();
    pass.layer(
        format!("registry.{ALGORITHM}.wall_s"),
        stats::median(&build_s).unwrap_or(0.0),
    );
    let scaled: Vec<f64> = block.iter().map(|&(w, m)| w * pace.factor(m)).collect();
    let build = stats::median(&scaled).unwrap_or(0.0);
    println!(
        "{ALGORITHM} rebuilds: {} in {BUILD_BLOCK_S} s, median {:.6} s as measured, {build:.6} s at nominal host speed",
        block.len(),
        stats::median(&block.iter().map(|b| b.0).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    pass.e2e("build_s", build);
    pass.e2e("build_geomean_s", build);
    pass.host_reference(&pace);

    check_answers(&mut pass, &served.g, &checked, &answers, engine.guarantee());
    if probe_layers {
        probe_batch(&mut pass, &served, &mut rng);
    }
    pass
}

/// Stretch of every kept answer from each checked source, against exact
/// BFS on `g`.
fn check_answers(
    pass: &mut Pass,
    g: &Graph,
    sources: &[VertexId],
    answers: &[(VertexId, VertexId, Option<Dist>)],
    guarantee: (f64, f64),
) {
    let _span = Span::new("bench", "check answers");
    let mut bfs_s = Vec::new();
    for &s in sources {
        let pairs: Vec<(VertexId, Option<Dist>)> = answers
            .iter()
            .filter(|a| a.0 == s)
            .map(|&(_, v, d)| (v, d))
            .collect();
        bfs_s.push(check_stretch(pass, "mapped query", g, s, &pairs, guarantee));
    }
    pass.layer(
        "graph.bfs_on_g_us",
        stats::median(&bfs_s).unwrap_or(0.0) * 1e6,
    );
}

/// One batched `QueryEngine::distances` call of uniform pairs on a fresh
/// engine over the same mapped snapshot.
fn probe_batch(pass: &mut Pass, served: &Served, rng: &mut Rng) {
    let Some(engine) = pass.op(QueryEngine::open(&served.backend).map_err(|e| e.to_string()))
    else {
        return;
    };
    let pairs: Vec<(VertexId, VertexId)> =
        (0..BATCH).map(|_| (rng.below(N), rng.below(N))).collect();
    let t = Instant::now();
    let answers = {
        let _span = Span::new("oracle", "QueryEngine::distances");
        engine.distances(&pairs)
    };
    pass.layer("oracle.batch_qps", answers.len() as f64 / secs(t));
}
