//! The benchmark's own statistics and span helpers.

use perfbench::host::{self, NOMINAL_S};
use perfbench::stats::{geomean, median, percentile, quartiles, relative_spread, tail_percentile};
use perfbench::trace::{chrome_json, self_seconds, SpanRecord};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's statistics.quantiles(data, n=4).
    let cases: [(&[f64], [f64; 3]); 5] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[5.0, 1.0, 3.0], [1.0, 3.0, 5.0]),
        (&[0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.8], [0.2, 0.4, 0.8]),
    ];
    for (data, want) in cases {
        let (q1, q2, q3) = quartiles(data).expect("two or more samples");
        assert!(
            close(q1, want[0]) && close(q2, want[1]) && close(q3, want[2]),
            "{data:?}: got {:?}, want {want:?}",
            (q1, q2, q3)
        );
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn relative_spread_is_iqr_over_median() {
    let s = relative_spread(&[1.0, 2.0, 3.0, 4.0]).expect("defined");
    assert!(close(s, (3.75 - 1.25) / 2.5));
    assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Some(50.0));
    assert_eq!(percentile(&xs, 99.0), Some(99.0));
    assert_eq!(percentile(&xs, 100.0), Some(100.0));
    assert_eq!(percentile(&[4.0, 9.0], 99.0), Some(9.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let n = |k: u32| -> Vec<f64> { (1..=k).map(f64::from).collect() };
    // 1000 samples: exactly ten lie beyond the 990th, so p99 qualifies.
    assert_eq!(tail_percentile(&n(1000)), Some((99.0, 990.0)));
    // 999: p99 has nine beyond; p95 is the highest with ten or more.
    assert_eq!(tail_percentile(&n(999)).map(|t| t.0), Some(95.0));
    // 10000: p99.9 has ten beyond.
    assert_eq!(tail_percentile(&n(10_000)).map(|t| t.0), Some(99.9));
    // 20: only the median has ten beyond; 19: nothing qualifies.
    assert_eq!(tail_percentile(&n(20)), Some((50.0, 10.0)));
    assert_eq!(tail_percentile(&n(19)), None);
}

#[test]
fn geomean_of_positive_values() {
    assert!(close(geomean(&[1.0, 100.0]).expect("positive"), 10.0));
    assert!(close(geomean(&[0.5, 2.0, 1.0]).expect("positive"), 1.0));
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[]), None);
}

fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        tid: 1,
        layer,
        name: format!("span {id}"),
        start_ns,
        end_ns,
        counts: vec![("n", id)],
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(1, 0, "bench", 0, 100),
        // Two overlapping children cover 10..50 of the parent.
        span(2, 1, "serve", 10, 30),
        span(3, 1, "serve", 20, 50),
        // A grandchild covers half of span 3.
        span(4, 3, "oracle", 30, 45),
    ];
    let self_s = self_seconds(&spans);
    assert!(close(self_s["bench"], 60e-9));
    assert!(close(self_s["serve"], 20e-9 + 15e-9));
    assert!(close(self_s["oracle"], 15e-9));
}

#[test]
fn chrome_trace_has_one_complete_event_per_span() {
    let mut s = span(7, 3, "cache", 1_500, 4_000);
    s.name = "store \"v4\"\n".into();
    let json = chrome_json(&[s]);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{"));
    assert!(
        json.contains("\"name\":\"store \\\"v4\\\"\\u000a\""),
        "{json}"
    );
    assert!(json.contains("\"cat\":\"cache\",\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"ts\":1.500,\"dur\":2.500"), "{json}");
    assert!(
        json.contains("\"args\":{\"id\":7,\"parent\":3,\"n\":7}"),
        "{json}"
    );
    assert!(json.trim_end().ends_with("]}"));
}

#[test]
fn host_factor_scales_to_nominal_and_ignores_a_single_stalled_mark() {
    let at = |r: f64| vec![r; 8];
    // A host at half speed doubles the reference time: times are halved.
    assert!(close(host::factor(&at(2.0 * NOMINAL_S), 3), 0.5));
    assert!(close(host::factor(&at(NOMINAL_S), 0), 1.0));
    // One mark read three times too slow leaves the blocks around it alone.
    let mut marks = at(NOMINAL_S);
    marks[4] = 3.0 * NOMINAL_S;
    for i in 0..marks.len() {
        assert!(close(host::factor(&marks, i), 1.0), "block {i}");
    }
    // A slow phase spanning many marks moves the factor.
    let phase: Vec<f64> = (0..12)
        .map(|i| if i < 6 { NOMINAL_S } else { 2.0 * NOMINAL_S })
        .collect();
    assert!(close(host::factor(&phase, 1), 1.0));
    assert!(close(host::factor(&phase, 9), 0.5));
    // The last block, with no mark after it, uses the marks before it.
    assert!(close(host::factor(&[NOMINAL_S], 0), 1.0));
}
