//! Host-speed reference: a fixed graph kernel owned by the benchmark,
//! timed between the measured blocks of every workload.
//!
//! The benchmark runs on shared hosts whose speed drifts by a third over
//! seconds to minutes as other tenants come and go. Every time the
//! benchmark reports is scaled to the host speed at which the reference
//! kernel takes [`NOMINAL_S`]: a figure measured while the reference took
//! `r` seconds is multiplied by `NOMINAL_S / r`. The kernel is breadth-
//! first search over a graph the benchmark generates itself from a fixed
//! seed, so nothing in the library under test changes its cost: a slower
//! program reads slower, a slower host does not.

use std::time::Instant;

/// Vertices of the reference graph. Its arrays, about 1 MB, outgrow the
/// L2 cache as the workloads' do; a kernel that fits in L2 tracked their
/// slowdowns less closely.
const VERTICES: usize = 32_768;

/// Extra random edges per vertex beside the spanning tree that keeps the
/// graph connected.
const EXTRA_PER_VERTEX: usize = 4;

/// Breadth-first searches per pass.
const SEARCHES: usize = 1;

/// Passes per measurement; the fastest counts, which drops a pass hit by
/// an interrupt.
const PASSES: usize = 3;

/// Reference time of one pass at the nominal host speed: the typical
/// fastest pass on the machine the benchmark was written on (2 vCPUs of
/// an Intel Xeon under KVM) when that host was quiet.
pub const NOMINAL_S: f64 = 1.4e-3;

/// The reference kernel and its scratch state.
pub struct Reference {
    offsets: Vec<u32>,
    adjacency: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Generates the fixed reference graph.
    pub fn new() -> Reference {
        // splitmix64 from a fixed seed: the graph never changes.
        let mut state = 0x00C0_FFEE_u64;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut lists = vec![Vec::new(); VERTICES];
        let mut link = |u: usize, v: usize| {
            lists[u].push(v as u32);
            lists[v].push(u as u32);
        };
        for v in 1..VERTICES {
            let u = next(v);
            link(u, v);
        }
        for _ in 0..VERTICES * EXTRA_PER_VERTEX / 2 {
            let (u, v) = (next(VERTICES), next(VERTICES));
            if u != v {
                link(u, v);
            }
        }
        let mut offsets = vec![0u32];
        let mut adjacency = Vec::new();
        for l in &lists {
            adjacency.extend_from_slice(l);
            offsets.push(adjacency.len() as u32);
        }
        Reference {
            offsets,
            adjacency,
            dist: vec![0; VERTICES],
            queue: Vec::with_capacity(VERTICES),
        }
    }

    /// Sum of BFS distances from `source` over the whole graph.
    fn bfs(&mut self, source: usize) -> u64 {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[source] = 0;
        self.queue.push(source as u32);
        let (mut head, mut sum) = (0, 0u64);
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            let dv = self.dist[v];
            sum += u64::from(dv);
            let (a, b) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            for i in a..b {
                let w = self.adjacency[i] as usize;
                if self.dist[w] == u32::MAX {
                    self.dist[w] = dv + 1;
                    self.queue.push(w as u32);
                }
            }
        }
        sum
    }

    /// Seconds of the fastest of [`PASSES`] passes.
    pub fn measure(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..PASSES {
            let t = Instant::now();
            let mut sum = 0;
            for k in 0..SEARCHES {
                sum += self.bfs(k * VERTICES / SEARCHES);
            }
            std::hint::black_box(sum);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }
}

/// Marks on each side of a block's own two that [`Pace::factor`] also
/// takes into account.
const SMOOTH: usize = 2;

/// [`Pace::factor`] of block `i` given the marks in seconds (at least one).
pub fn factor(marks_s: &[f64], i: usize) -> f64 {
    let last = marks_s.len() - 1;
    let lo = i.saturating_sub(SMOOTH).min(last);
    let hi = (i + 1 + SMOOTH).min(last);
    NOMINAL_S / crate::stats::median(&marks_s[lo..=hi]).expect("at least one mark")
}

/// Reference measurements taken at the boundaries of a run's measured
/// blocks: mark `i` is taken before block `i` and mark `i + 1` after it.
pub struct Pace {
    reference: Reference,
    marks_s: Vec<f64>,
}

impl Default for Pace {
    fn default() -> Self {
        Pace::new()
    }
}

impl Pace {
    pub fn new() -> Pace {
        let mut reference = Reference::new();
        // One untimed pass warms the caches and the page tables.
        reference.measure();
        Pace {
            reference,
            marks_s: Vec::new(),
        }
    }

    /// Measures the reference now; returns the mark's index.
    pub fn mark(&mut self) -> usize {
        self.marks_s.push(self.reference.measure());
        self.marks_s.len() - 1
    }

    /// Scale factor of block `i`: [`NOMINAL_S`] over the median of the
    /// marks from `i - SMOOTH` to `i + 1 + SMOOTH`, the two around the
    /// block and up to [`SMOOTH`] more on each side. A single mark can
    /// read several times too slow when the host stalls the process for
    /// a moment; the median keeps such a mark from rescaling its blocks,
    /// while a slow phase, which spans many marks, still moves it.
    pub fn factor(&self, i: usize) -> f64 {
        factor(&self.marks_s, i)
    }

    /// All marks in seconds.
    pub fn marks_s(&self) -> &[f64] {
        &self.marks_s
    }
}
