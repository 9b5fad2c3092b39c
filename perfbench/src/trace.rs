//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a [`Span`] around each call it makes into a layer
//! of the library. While recording is off (the end-to-end runs) a span is
//! inert and costs one atomic load. While it is on, finished spans are
//! kept in memory and written out once, at the end, as Chrome
//! trace-event JSON ([`chrome_json`]), which Perfetto opens offline. Each
//! span carries its name, layer, start, end, parent span and named
//! counts; [`self_seconds`] derives each layer's self time from them.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or of the span named
    /// with [`Span::child_of`]; 0 for a root.
    pub parent: u64,
    /// Recording thread (small dense ids).
    pub tid: u64,
    /// Layer the span's time belongs to.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Named counts observed at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

/// Turns recording on or off (process-wide).
pub fn set_recording(on: bool) {
    epoch();
    RECORDING.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Removes and returns every finished span, in completion order.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// An open span; records itself when dropped.
pub struct Span {
    open: Option<SpanRecord>,
}

impl Span {
    /// Opens a span under the innermost open span of this thread.
    pub fn new(layer: &'static str, name: impl Into<String>) -> Span {
        Span::open(layer, name, None)
    }

    /// Opens a span whose parent is `parent` (a span of another thread,
    /// e.g. the workload span of a client thread's requests).
    pub fn child_of(parent: u64, layer: &'static str, name: impl Into<String>) -> Span {
        Span::open(layer, name, Some(parent))
    }

    fn open(layer: &'static str, name: impl Into<String>, parent: Option<u64>) -> Span {
        if !recording() {
            return Span { open: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent =
            parent.unwrap_or_else(|| STACK.with(|s| s.borrow().last().copied().unwrap_or(0)));
        STACK.with(|s| s.borrow_mut().push(id));
        Span {
            open: Some(SpanRecord {
                id,
                parent,
                tid: TID.with(|t| *t),
                layer,
                name: name.into(),
                start_ns: epoch().elapsed().as_nanos() as u64,
                end_ns: 0,
                counts: Vec::new(),
            }),
        }
    }

    /// This span's id (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |r| r.id)
    }

    /// Attaches a named count.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(r) = self.open.as_mut() {
            r.counts.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut rec) = self.open.take() else {
            return;
        };
        rec.end_ns = epoch().elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == rec.id) {
                s.remove(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(rec);
        }
    }
}

/// Self seconds per layer: each span's duration minus the part of its
/// interval covered by its children, summed by layer.
pub fn self_seconds(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The spans as a Chrome trace-event JSON document: one complete (`"X"`)
/// event per span, timestamps in microseconds, the layer as category,
/// and the id, parent and counts under `args`.
pub fn chrome_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_str(&mut out, &s.name);
        out.push_str(",\"cat\":");
        json_str(&mut out, s.layer);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        );
        for (k, v) in &s.counts {
            out.push(',');
            json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}
