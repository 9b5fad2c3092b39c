//! Bench-regression trend: parse `cargo bench --bench parallel` timing
//! JSONs and compare a PR run against its merge-base run.
//!
//! The workspace is dependency-free, so this carries its own minimal JSON
//! reader — enough for the documents our benches write (objects, arrays,
//! strings, numbers, booleans, null; no escapes beyond the ones
//! `timing::json_string` emits).
//!
//! The comparison contract (enforced by CI's `bench-regression` job via
//! the `bench_diff` binary): for every `(algorithm, threads)` leg present
//! in both runs, neither `total_s` nor `phase0_s` nor `peak_rss_mb` may
//! exceed the base by more than the tolerance (default 20%) — small
//! absolute deltas are exempted by per-unit noise floors, since a 3 ms
//! phase jumping to 4 ms on a shared runner is scheduling jitter and a
//! few MiB of allocator slack is not a memory regression.
//!
//! # Bench JSON schema notes
//!
//! Each run object inside an algorithm's `runs` array carries:
//!
//! | field          | unit | since | meaning                               |
//! |----------------|------|-------|---------------------------------------|
//! | `threads`      | —    | PR 4  | thread count of the leg               |
//! | `total_s`      | s    | PR 4  | best total build wall clock           |
//! | `phase0_s`     | s    | PR 4  | best phase-0 (exploration) wall clock |
//! | `explorations` | —    | PR 4  | phase-0 exploration count             |
//! | `peak_rss_mb`  | MiB  | PR 8  | peak RSS (`VmHWM`) of the best sample |
//!
//! `peak_rss_mb` is the *process* high-water mark read after
//! `rss::reset_peak()`, not the build's own allocation: the reset can
//! only lower the mark to the resident set at that moment, so heap that
//! an earlier leg left resident counts toward every later leg. The
//! `parallel` bench therefore runs all in-process legs before any
//! `+workers` leg.
//!
//! `peak_rss_mb` is optional twice over: documents from before PR 8 lack
//! the field, and runs on platforms without procfs omit it. The
//! comparison only scores the metric when *both* legs carry it, and —
//! like the timing metrics — a >20% growth fails only past an absolute
//! noise floor (allocator and page-cache jitter; default 32 MiB).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`; bench documents only hold those).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// A human-readable message with the byte offset of the problem.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Bench documents are ASCII-safe, but pass UTF-8 through.
                let start = *pos;
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let end = (start + len).min(b.len());
                out.push_str(std::str::from_utf8(&b[start..end]).map_err(|_| "bad utf-8")?);
                *pos = end;
            }
        }
    }
}

/// One `(algorithm, threads)` timing leg of a parallel-bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLeg {
    /// Registry name of the algorithm.
    pub algorithm: String,
    /// Thread count of the leg.
    pub threads: u64,
    /// Best total build time, seconds.
    pub total_s: f64,
    /// Best phase-0 time, seconds.
    pub phase0_s: f64,
    /// Peak RSS of the best sample, MiB. `None` when the document
    /// predates the column or the run's platform lacks procfs.
    pub peak_rss_mb: Option<f64>,
}

impl BenchLeg {
    /// `algorithm/threads=N` — the stable leg label used in verdicts.
    pub fn label(&self) -> String {
        format!("{}/threads={}", self.algorithm, self.threads)
    }
}

/// Extracts the timing legs of a `bench-parallel.json` document.
///
/// # Errors
///
/// A message naming the malformed part.
pub fn parse_bench_document(text: &str) -> Result<Vec<BenchLeg>, String> {
    let doc = parse_json(text)?;
    let algorithms = doc
        .get("algorithms")
        .and_then(Json::as_arr)
        .ok_or("document has no algorithms array")?;
    let mut legs = Vec::new();
    for algo in algorithms {
        let name = algo
            .get("name")
            .and_then(Json::as_str)
            .ok_or("algorithm entry has no name")?;
        let runs = algo
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{name}: no runs array"))?;
        for run in runs {
            let field = |key: &str| {
                run.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: run lacks numeric {key}"))
            };
            legs.push(BenchLeg {
                algorithm: name.to_string(),
                threads: field("threads")? as u64,
                total_s: field("total_s")?,
                phase0_s: field("phase0_s")?,
                peak_rss_mb: run.get("peak_rss_mb").and_then(Json::as_f64),
            });
        }
    }
    Ok(legs)
}

/// One verdict row of [`compare_legs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `algorithm/threads=N`.
    pub label: String,
    /// `"total"`, `"phase0"`, or `"peak_rss"`.
    pub metric: &'static str,
    /// Unit of `base`/`pr`: `"s"` for the timing metrics, `"MB"` for
    /// `peak_rss`.
    pub unit: &'static str,
    /// Merge-base value.
    pub base: f64,
    /// PR value.
    pub pr: f64,
    /// `pr / base` (`inf` when the base value is 0).
    pub ratio: f64,
    /// Whether this row breaches the tolerance.
    pub regressed: bool,
}

/// Compares PR legs against base legs (matched by `(algorithm, threads)`;
/// legs present in only one run are skipped — a new algorithm has no
/// baseline yet). A row regresses when `pr > base * (1 + tolerance)` *and*
/// the absolute delta clears that metric's noise floor (`noise_floor_s`
/// for the timing metrics, `noise_floor_mb` for peak RSS). The RSS row
/// appears only when both legs carry the column.
pub fn compare_legs(
    base: &[BenchLeg],
    pr: &[BenchLeg],
    tolerance: f64,
    noise_floor_s: f64,
    noise_floor_mb: f64,
) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for p in pr {
        let Some(b) = base
            .iter()
            .find(|b| b.algorithm == p.algorithm && b.threads == p.threads)
        else {
            continue;
        };
        let mut rows = vec![
            ("total", "s", b.total_s, p.total_s, noise_floor_s),
            ("phase0", "s", b.phase0_s, p.phase0_s, noise_floor_s),
        ];
        if let (Some(base_mb), Some(pr_mb)) = (b.peak_rss_mb, p.peak_rss_mb) {
            rows.push(("peak_rss", "MB", base_mb, pr_mb, noise_floor_mb));
        }
        for (metric, unit, base_v, pr_v, floor) in rows {
            let ratio = if base_v > 0.0 {
                pr_v / base_v
            } else {
                f64::INFINITY
            };
            let regressed = pr_v > base_v * (1.0 + tolerance) && (pr_v - base_v) > floor;
            verdicts.push(Verdict {
                label: p.label(),
                metric,
                unit,
                base: base_v,
                pr: pr_v,
                ratio,
                regressed,
            });
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"n":20000,"edges":80000,"hardware_threads":4,"algorithms":[
        {"name":"centralized","phase0_speedup_at_4_threads":2.5,"runs":[
            {"threads":1,"total_s":1.0,"phase0_s":0.8,"explorations":100,"peak_rss_mb":200.0},
            {"threads":4,"total_s":0.5,"phase0_s":0.32,"explorations":120,"peak_rss_mb":260.0}]},
        {"name":"fast-centralized","phase0_speedup_at_4_threads":2.0,"runs":[
            {"threads":1,"total_s":2.0,"phase0_s":1.5,"explorations":90}]}]}"#;

    #[test]
    fn parses_the_bench_document_shape() {
        let legs = parse_bench_document(SAMPLE).unwrap();
        assert_eq!(legs.len(), 3);
        assert_eq!(legs[0].algorithm, "centralized");
        assert_eq!(legs[0].threads, 1);
        assert!((legs[1].phase0_s - 0.32).abs() < 1e-12);
        assert_eq!(legs[0].peak_rss_mb, Some(200.0));
        // Documents predating the RSS column still parse.
        assert_eq!(legs[2].peak_rss_mb, None);
        assert_eq!(legs[2].label(), "fast-centralized/threads=1");
    }

    #[test]
    fn json_reader_handles_the_primitives() {
        let v = parse_json(r#"{"a":[1,2.5,-3e-2],"b":"x\"y\n","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse_json("{\"unterminated\":").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn regression_detected_beyond_tolerance_and_floor() {
        let base = parse_bench_document(SAMPLE).unwrap();
        let mut pr = base.clone();
        pr[0].total_s = 1.3; // +30% on a 1 s leg: regression
        pr[1].phase0_s = 0.33; // +3%: within tolerance
        let verdicts = compare_legs(&base, &pr, 0.2, 0.02, 32.0);
        let bad: Vec<_> = verdicts.iter().filter(|v| v.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "centralized/threads=1");
        assert_eq!(bad[0].metric, "total");
        assert_eq!(bad[0].unit, "s");
        assert!((bad[0].ratio - 1.3).abs() < 1e-9);
    }

    #[test]
    fn rss_regression_detected_and_floored() {
        let base = parse_bench_document(SAMPLE).unwrap();
        let mut pr = base.clone();
        pr[0].peak_rss_mb = Some(300.0); // +50% and +100 MB: regression
        pr[1].peak_rss_mb = Some(280.0); // +7.7%: within tolerance
        let verdicts = compare_legs(&base, &pr, 0.2, 0.02, 32.0);
        let bad: Vec<_> = verdicts.iter().filter(|v| v.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "peak_rss");
        assert_eq!(bad[0].unit, "MB");
        assert!((bad[0].ratio - 1.5).abs() < 1e-9);
        // A blow-up under the absolute floor is allocator jitter.
        let mut tiny_base = base.clone();
        tiny_base[0].peak_rss_mb = Some(10.0);
        let mut tiny_pr = tiny_base.clone();
        tiny_pr[0].peak_rss_mb = Some(30.0); // 3x, but only +20 MB
        let verdicts = compare_legs(&tiny_base, &tiny_pr, 0.2, 0.02, 32.0);
        assert!(verdicts.iter().all(|v| !v.regressed));
    }

    #[test]
    fn rss_rows_require_both_legs_to_carry_the_column() {
        let base = parse_bench_document(SAMPLE).unwrap();
        let mut pr = base.clone();
        pr[0].peak_rss_mb = None; // e.g. PR run on a procfs-less platform
        let verdicts = compare_legs(&base, &pr, 0.2, 0.02, 32.0);
        let rss_rows: Vec<_> = verdicts.iter().filter(|v| v.metric == "peak_rss").collect();
        // Leg 0 contributes no RSS row; leg 1 still does.
        assert_eq!(rss_rows.len(), 1);
        assert_eq!(rss_rows[0].label, "centralized/threads=4");
    }

    #[test]
    fn noise_floor_exempts_tiny_legs() {
        let base = vec![BenchLeg {
            algorithm: "centralized".into(),
            threads: 1,
            total_s: 0.003,
            phase0_s: 0.002,
            peak_rss_mb: None,
        }];
        let mut pr = base.clone();
        pr[0].total_s = 0.005; // +66%, but only 2 ms — jitter
        let verdicts = compare_legs(&base, &pr, 0.2, 0.02, 32.0);
        assert!(verdicts.iter().all(|v| !v.regressed));
    }

    #[test]
    fn unmatched_legs_are_skipped() {
        let base = parse_bench_document(SAMPLE).unwrap();
        let pr = vec![BenchLeg {
            algorithm: "brand-new".into(),
            threads: 1,
            total_s: 9.0,
            phase0_s: 9.0,
            peak_rss_mb: None,
        }];
        assert!(compare_legs(&base, &pr, 0.2, 0.02, 32.0).is_empty());
    }
}
