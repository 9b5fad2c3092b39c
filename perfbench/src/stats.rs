//! Order statistics used by every workload's report.
//!
//! Conventions follow what the benchmark's consumers compute from the
//! emitted numbers, so a figure printed here and a figure recomputed from
//! raw samples agree:
//!
//! * [`median`] averages the two middle values of an even-length sample;
//! * [`quartiles`] is Python's `statistics.quantiles(data, n=4)` (the
//!   default "exclusive" method);
//! * [`percentile`] is nearest-rank;
//! * [`tail_percentile`] picks the highest of a fixed ladder of
//!   percentiles that still has at least [`TAIL_MIN_BEYOND`] samples
//!   beyond it, the rule for reporting a latency tail honestly.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentile ladder [`tail_percentile`] chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let v = sorted(xs);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    Some(v[rank(v.len(), p).clamp(1, v.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The margin
/// keeps `p·n/100` that is whole in exact arithmetic (99.9 % of 10 000)
/// from rounding up past it.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, and its value; `None` when even
/// the median has fewer than that many samples above it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(xs.len(), p) >= TAIL_MIN_BEYOND)?;
    Some((p, percentile(xs, p)?))
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Interquartile range as a share of the median (the run-to-run spread
/// the benchmark's bounds are compared against).
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}
