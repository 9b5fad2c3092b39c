//! Process probes read from `/proc`: peak resident memory and its reset,
//! CPU time, page faults, and the peak memory of child processes; and
//! pinning the process to one CPU.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Kernel clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const TICKS_PER_S: f64 = 100.0;

fn status_kb(path: &Path, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

fn peak_rss_kb() -> Option<u64> {
    status_kb(Path::new("/proc/self/status"), "VmHWM:")
}

fn rss_kb() -> Option<u64> {
    status_kb(Path::new("/proc/self/status"), "VmRSS:")
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_kb().map(|kb| kb as f64 / 1024.0)
}

/// Returns freed heap pages to the kernel, so that the resident set
/// counts live data rather than what the allocator kept from earlier
/// calls (glibc keeps freed memory mapped; elsewhere this is a no-op).
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes a plain integer, has no
        // preconditions and is thread-safe in glibc.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets this process's peak resident set to its current one by writing
/// `5` to `/proc/self/clear_refs`, after handing freed heap back to the
/// kernel. Returns whether the reset took effect: the write succeeded and
/// `VmHWM` now reads no more than `VmRSS` plus a small allowance for pages
/// touched between the two reads. Callers must report a peak measured
/// after a failed reset as unresolved, never as a per-call figure, since
/// it may be an earlier call's peak.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        return false;
    }
    const SLACK_KB: u64 = 4096;
    match (peak_rss_kb(), rss_kb()) {
        (Some(hwm), Some(rss)) => hwm <= rss + SLACK_KB,
        _ => false,
    }
}

/// Restricts this process, its later threads and the children it spawns
/// to the highest-numbered CPU it may run on; returns that CPU, or `None`
/// when the affinity cannot be read or set (the process then runs
/// unpinned).
///
/// On a virtual machine with few vCPUs, a wake-up sent to another vCPU
/// waits until the host schedules that vCPU, which takes as long as the
/// host is busy; on one CPU, a wake-up is a local context switch. Pinning
/// keeps the host's load out of the socket and daemon round trips.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// `cpu_set_t`: 1024 bits.
        const WORDS: usize = 16;
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
        // layout of a `cpu_set_t`; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above, for a read-only buffer of `size` bytes.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        None
    }
}

/// CPU and fault counters of this process from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// User plus system CPU seconds of reaped children.
    pub children_cpu_s: f64,
}

impl ProcStat {
    /// Reads the current counters (all zero when `/proc` is unavailable).
    pub fn now() -> ProcStat {
        let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
            return ProcStat::default();
        };
        // Fields after the parenthesised command name, starting at field 3
        // (state); `comm` may itself contain spaces or parentheses.
        let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
            return ProcStat::default();
        };
        let f: Vec<u64> = rest
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        // Index i here is stat field i + 4.
        let field = |n: usize| f.get(n - 4).copied().unwrap_or(0);
        ProcStat {
            minflt: field(10),
            sys_s: field(15) as f64 / TICKS_PER_S,
            children_cpu_s: (field(16) + field(17)) as f64 / TICKS_PER_S,
        }
    }

    /// Counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            sys_s: self.sys_s - earlier.sys_s,
            children_cpu_s: self.children_cpu_s - earlier.children_cpu_s,
        }
    }
}

/// Pids of this process's live children, gathered from every thread's
/// `/proc/self/task/<tid>/children` list (a child is listed under the
/// thread that spawned it).
fn child_pids() -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut pids = Vec::new();
    for task in tasks.flatten() {
        if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
            pids.extend(
                list.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    pids
}

/// Samples the peak resident set (`VmHWM`) of every child process every
/// few milliseconds while it lives. `VmHWM` never decreases, so the last
/// sample before a child exits is its peak up to the sampling interval.
pub struct ChildPeakSampler {
    stop: Arc<AtomicBool>,
    peaks: Arc<Mutex<HashMap<u32, u64>>>,
    handle: Option<JoinHandle<()>>,
}

/// Interval between two child samples.
const CHILD_SAMPLE_EVERY: Duration = Duration::from_millis(2);

impl ChildPeakSampler {
    /// Starts sampling on a background thread.
    pub fn start() -> ChildPeakSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peaks = Arc::new(Mutex::new(HashMap::new()));
        let handle = {
            let (stop, peaks) = (Arc::clone(&stop), Arc::clone(&peaks));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    for pid in child_pids() {
                        let path = format!("/proc/{pid}/status");
                        if let Some(kb) = status_kb(Path::new(&path), "VmHWM:") {
                            let mut peaks = peaks.lock().expect("sampler map poisoned");
                            let peak = peaks.entry(pid).or_insert(0);
                            *peak = (*peak).max(kb);
                        }
                    }
                    std::thread::sleep(CHILD_SAMPLE_EVERY);
                }
            })
        };
        ChildPeakSampler {
            stop,
            peaks,
            handle: Some(handle),
        }
    }

    /// Stops sampling and returns `(children seen, sum of their peaks in
    /// MiB)`. The children of one build run concurrently, so the sum
    /// bounds their joint peak from above.
    pub fn finish(mut self) -> (usize, f64) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("child sampler thread panicked");
        }
        let peaks = self.peaks.lock().expect("sampler map poisoned");
        (peaks.len(), peaks.values().sum::<u64>() as f64 / 1024.0)
    }
}

impl Drop for ChildPeakSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
