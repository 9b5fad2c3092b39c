//! What the four workloads share: run context, outcome accounting,
//! seeded inputs, timing helpers and the stretch check against exact BFS.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use perfbench::host::Pace;
use perfbench::metrics::Values;
use perfbench::stats;
use perfbench::trace::Span;
use usnae_graph::{bfs, generators, Dist, Graph, VertexId};

/// Edge density of every generated input: connected `G(n, p = 8/n)`.
pub const AVG_DEGREE: f64 = 8.0;

/// How one run is parameterised.
pub struct Ctx {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    /// Scratch directory inside the checkout, private to this run.
    pub work: PathBuf,
}

impl Ctx {
    /// Deadline of a measured part that starts now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// End-to-end metrics.
    pub e2e: Values,
    /// Per-layer metrics (recorded in every pass; reported when traced).
    pub layer: Values,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// Mean seconds per measured operation (the trace-overhead base).
    pub mean_op_s: f64,
}

impl Pass {
    /// Counts one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Counts one operation; a failed or refused one is reported on
    /// stderr and yields `None`.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: operation failed: {e}");
                None
            }
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }
}

/// splitmix64: the benchmark's own seeded generator, so inputs depend
/// only on the seed and on nothing in the library under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_u64.rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `bound` (> 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `count` input seeds: `seed` itself, then seeds drawn from it.
pub fn graph_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x6EA9);
    std::iter::once(seed)
        .chain(std::iter::repeat_with(|| rng.next_u64()))
        .take(count)
        .collect()
}

/// Generates the workload's input graph inside a `graph` span.
pub fn generate(n: usize, seed: u64) -> (Graph, f64) {
    let _span = Span::new("graph", "generators::gnp_connected");
    let t = Instant::now();
    let g = generators::gnp_connected(n, AVG_DEGREE / n as f64, seed)
        .expect("gnp_connected accepts 0 < p < 1");
    (g, secs(t))
}

/// Median of repeated set-ups, each scaled to the nominal host speed by
/// the reference marks taken around it: runs `setup` `reps` times and
/// keeps the last state.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut pace = Pace::new();
    let mut raw = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        pace.mark();
        let _span = Span::new("bench", "setup");
        let t = Instant::now();
        last = Some(setup());
        raw.push(secs(t));
    }
    pace.mark();
    let scaled: Vec<f64> = raw
        .iter()
        .enumerate()
        .map(|(i, s)| s * pace.factor(i))
        .collect();
    let (q1, q2, q3) = stats::quartiles(&raw).unwrap_or((raw[0], raw[0], raw[0]));
    println!(
        "set-up: {} set-ups, quartiles {q1:.6} {q2:.6} {q3:.6} s as measured, median {:.6} s at \
         nominal host speed",
        raw.len(),
        stats::median(&scaled).expect("non-empty"),
    );
    (
        last.expect("at least one set-up ran"),
        stats::median(&scaled).expect("non-empty"),
    )
}

/// Checks `d_G ≤ d̂ ≤ α·d_G + β` for every `(target, d̂)` from `source`
/// against exact BFS on `g`; returns the BFS time in seconds.
pub fn check_stretch(
    pass: &mut Pass,
    what: &str,
    g: &Graph,
    source: VertexId,
    answers: &[(VertexId, Option<Dist>)],
    (alpha, beta): (f64, f64),
) -> f64 {
    let t = Instant::now();
    let exact = {
        let _span = Span::new("graph", "bfs::bfs");
        bfs::bfs(g, source)
    };
    let bfs_s = secs(t);
    let mut bad = None;
    for &(v, d) in answers {
        let ok = match (exact[v], d) {
            (Some(dg), Some(dh)) => dh >= dg && dh as f64 <= alpha * dg as f64 + beta + 1e-9,
            (None, None) => true,
            _ => false,
        };
        if !ok && bad.is_none() {
            bad = Some((v, exact[v], d));
        }
    }
    pass.check(bad.is_none(), || {
        let (v, dg, dh) = bad.expect("a failing pair was recorded");
        format!("{what}: pair ({source}, {v}) has d_G={dg:?}, d_hat={dh:?} outside alpha={alpha}, beta={beta}")
    });
    bfs_s
}

/// Length of one closed-loop window of `mapped-query`.
pub const WINDOW_S: f64 = 2.0;

/// One completed operation of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Completion time, seconds after the measured part started.
    pub at_s: f64,
    /// Latency in seconds, as measured.
    pub latency_s: f64,
    /// Host scale factor of the block the operation ran in
    /// ([`Pace::factor`]).
    pub factor: f64,
    /// Whether the latency counts toward the reported percentiles (the
    /// daemon's percentiles cover query batches only).
    pub timed: bool,
}

/// Throughput and latency of a closed loop, at nominal host speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopFigures {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Splits the measured part into windows of `window_s` seconds by
/// completion time, computes throughput, p50 and p99 (nearest rank) within
/// each window, and reports the median over windows of each. Latencies
/// are scaled by their operation's host factor and a window's throughput
/// is divided by its operations' mean factor, so every figure is at
/// nominal host speed.
///
/// Interference from other tenants of the host also arrives in bursts (a
/// descheduled vCPU stalls requests for a whole scheduler slice); a
/// median over windows ignores the disturbed windows as long as they are
/// fewer than half, where a figure pooled over the run would absorb them.
/// A loop with too few operations for a p99 per window passes the whole
/// measured part as one window.
pub fn median_window(label: &str, done: &[Done], seconds: f64, window_s: f64) -> LoopFigures {
    let windows = (seconds / window_s).floor().max(1.0) as usize;
    let mut per_window: Vec<Vec<Done>> = vec![Vec::new(); windows];
    for d in done {
        if let Some(bucket) = per_window.get_mut((d.at_s / window_s) as usize) {
            bucket.push(*d);
        }
    }
    let (mut ops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut fewest = usize::MAX;
    for w in &per_window {
        let mean_factor = w.iter().map(|d| d.factor).sum::<f64>() / w.len().max(1) as f64;
        if !w.is_empty() {
            ops.push(w.len() as f64 / window_s / mean_factor);
        }
        let lat_us: Vec<f64> = w
            .iter()
            .filter(|d| d.timed)
            .map(|d| d.latency_s * d.factor * 1e6)
            .collect();
        fewest = fewest.min(lat_us.len());
        if let (Some(a), Some(b)) = (stats::median(&lat_us), stats::percentile(&lat_us, 99.0)) {
            p50.push(a);
            p99.push(b);
        }
    }
    let figures = LoopFigures {
        ops_per_s: stats::median(&ops).unwrap_or(0.0),
        p50_us: stats::median(&p50).unwrap_or(0.0),
        p99_us: stats::median(&p99).unwrap_or(0.0),
    };
    let all_us: Vec<f64> = done
        .iter()
        .filter(|d| d.timed)
        .map(|d| d.latency_s * 1e6)
        .collect();
    let all_scaled_us: Vec<f64> = done
        .iter()
        .filter(|d| d.timed)
        .map(|d| d.latency_s * d.factor * 1e6)
        .collect();
    println!(
        "{label}: whole run at nominal host speed: p50 {:.1} us, p99 {:.1} us",
        stats::median(&all_scaled_us).unwrap_or(0.0),
        stats::percentile(&all_scaled_us, 99.0).unwrap_or(0.0)
    );
    let tail = stats::tail_percentile(&all_us).map_or(
        "no percentile has ten samples beyond it".into(),
        |(p, v)| format!("p{p} = {v:.1} us"),
    );
    println!(
        "{label}: median of {windows} windows of {window_s} s at nominal host speed: {:.1} ops/s, \
         p50 {:.1} us, p99 {:.1} us (fewest latency samples in a window: {fewest}); whole run as \
         measured: {} operations, {} latency samples, p50 {:.1} us, p99 {:.1} us, highest \
         percentile with ten beyond: {tail}",
        figures.ops_per_s,
        figures.p50_us,
        figures.p99_us,
        done.len(),
        all_us.len(),
        stats::median(&all_us).unwrap_or(0.0),
        stats::percentile(&all_us, 99.0).unwrap_or(0.0),
    );
    figures
}

/// End-to-end figures of a set of constructions from their repeats,
/// each repeat already scaled to nominal host speed and grouped by input
/// (`over` names the groups in the report).
///
/// Each construction is represented by the mean over its groups of the
/// median of the group's repeats. `build_s` sums them, the geometric mean
/// keeps a slowdown of a fast construction visible beside a slow one,
/// throughput is constructions per second when the set is built once at
/// that pace, and p50/p99 are taken over the constructions (with so few
/// samples, p99 is the slowest construction).
pub fn build_set(
    label: &str,
    over: &str,
    repeats: &[(&str, Vec<Vec<f64>>)],
) -> (f64, f64, LoopFigures) {
    let mut times = Vec::new();
    for (name, groups) in repeats {
        let medians: Vec<f64> = groups.iter().filter_map(|r| stats::median(r)).collect();
        if medians.is_empty() {
            continue;
        }
        let mean = medians.iter().sum::<f64>() / medians.len() as f64;
        let all: Vec<f64> = groups.concat();
        println!(
            "  {name:<20} {mean:>9.4} s (mean over {over} of the median), fastest {:>9.4} s, \
             spread {:>6.3} over {} builds",
            all.iter().copied().reduce(f64::min).unwrap_or(0.0),
            stats::relative_spread(&all).unwrap_or(0.0),
            all.len()
        );
        times.push(mean);
    }
    let build_s: f64 = times.iter().sum();
    let us: Vec<f64> = times.iter().map(|s| s * 1e6).collect();
    let figures = LoopFigures {
        ops_per_s: if build_s > 0.0 {
            times.len() as f64 / build_s
        } else {
            0.0
        },
        p50_us: stats::median(&us).unwrap_or(0.0),
        p99_us: stats::percentile(&us, 99.0).unwrap_or(0.0),
    };
    println!(
        "{label}: {} constructions, set built once at median pace in {build_s:.4} s (nominal host speed)",
        times.len()
    );
    (build_s, stats::geomean(&times).unwrap_or(0.0), figures)
}

impl Pass {
    /// Sets `host.reference_us`: the median reference time of the run's
    /// marks, which tells how fast the host was.
    pub fn host_reference(&mut self, pace: &Pace) {
        let us: Vec<f64> = pace.marks_s().iter().map(|s| s * 1e6).collect();
        self.layer("host.reference_us", stats::median(&us).unwrap_or(0.0));
    }

    /// Sets the three loop metrics.
    pub fn loop_figures(&mut self, f: LoopFigures) {
        self.e2e("ops_per_s", f.ops_per_s);
        self.e2e("latency_p50_us", f.p50_us);
        self.e2e("latency_p99_us", f.p99_us);
    }
}
