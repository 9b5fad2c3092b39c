//! The unified build result: emulator + certification + trace + stats.

use crate::centralized::BuildTrace;
use crate::distributed::driver::DistributedPhaseTrace;
use crate::distributed::spanner_driver::SpannerDriverPhase;
use crate::emulator::Emulator;
pub use crate::exec::{BuildStats, CacheStatus, PhaseTiming};
use crate::sai::SaiTrace;
use usnae_congest::Metrics;

/// Construction-agnostic view of one phase, distilled from any [`Trace`]
/// variant — what the anatomy experiments and progress reports consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSummary {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|` at phase entry.
    pub num_clusters: usize,
    /// Superclusters formed.
    pub num_superclusters: usize,
    /// Clusters left unclustered (`|U_i|`).
    pub num_unclustered: usize,
    /// Interconnection edge insertions.
    pub interconnection_edges: usize,
    /// Superclustering edge insertions.
    pub superclustering_edges: usize,
    /// Buffer-join edge insertions (Algorithm 1 only; 0 elsewhere).
    pub buffer_join_edges: usize,
}

/// Per-phase build record, preserved per construction family.
///
/// The summaries ([`Trace::phase_summaries`]) are the generic view; the
/// `as_*` accessors recover the construction-specific detail (partitions,
/// buffer counts, ruling iterations, round charges) when a consumer needs
/// it — e.g. the per-level stretch audit needs the centralized partitions.
#[derive(Debug, Clone)]
pub enum Trace {
    /// Algorithm 1 (§2) — includes partitions and `U_i` families.
    Centralized(BuildTrace),
    /// The SAI phase loop ([`crate::sai::run_phases`]): the fast
    /// centralized simulation (§3.3) or the centralized §4 spanner —
    /// [`BuildOutput::algorithm`] names which.
    Sai(SaiTrace),
    /// Distributed §3 emulator (per-phase CONGEST records).
    Distributed(Vec<DistributedPhaseTrace>),
    /// Distributed §4 spanner.
    DistributedSpanner(Vec<SpannerDriverPhase>),
}

/// The per-phase records of every trace family share these field names;
/// `buffer_join_edges` exists only on Algorithm 1's records, so it is
/// passed as an accessor expression.
macro_rules! summarize_phases {
    ($phases:expr, $buffer:expr) => {
        $phases
            .iter()
            .map(|p| PhaseSummary {
                phase: p.phase,
                num_clusters: p.num_clusters,
                num_superclusters: p.num_superclusters,
                num_unclustered: p.num_unclustered,
                interconnection_edges: p.interconnection_edges,
                superclustering_edges: p.superclustering_edges,
                buffer_join_edges: $buffer(p),
            })
            .collect()
    };
}

impl Trace {
    /// The construction-agnostic per-phase view.
    pub fn phase_summaries(&self) -> Vec<PhaseSummary> {
        match self {
            Trace::Centralized(t) => {
                summarize_phases!(t.phases, |p: &crate::centralized::PhaseTrace| p
                    .buffer_join_edges)
            }
            Trace::Sai(t) => summarize_phases!(t.phases, |_| 0),
            Trace::Distributed(phases) => summarize_phases!(phases, |_| 0),
            Trace::DistributedSpanner(phases) => summarize_phases!(phases, |_| 0),
        }
    }

    /// The Algorithm 1 trace, if this build ran Algorithm 1.
    pub fn as_centralized(&self) -> Option<&BuildTrace> {
        match self {
            Trace::Centralized(t) => Some(t),
            _ => None,
        }
    }

    /// The SAI loop trace, if this build ran the fast simulation or the
    /// centralized spanner.
    pub fn as_sai(&self) -> Option<&SaiTrace> {
        match self {
            Trace::Sai(t) => Some(t),
            _ => None,
        }
    }

    /// The §3 CONGEST phase records, if this build ran distributedly.
    pub fn as_distributed(&self) -> Option<&[DistributedPhaseTrace]> {
        match self {
            Trace::Distributed(t) => Some(t),
            _ => None,
        }
    }

    /// The distributed §4 phase records.
    pub fn as_distributed_spanner(&self) -> Option<&[SpannerDriverPhase]> {
        match self {
            Trace::DistributedSpanner(t) => Some(t),
            _ => None,
        }
    }
}

/// Execution statistics of a CONGEST-model build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestStats {
    /// Rounds/messages/words/congestion from the simulator.
    pub metrics: Metrics,
    /// Edge-knowledge cross-checks performed (both-endpoints property).
    pub knowledge_checked: usize,
    /// Cross-checks that failed — the §3 guarantee demands **0**.
    pub knowledge_violations: usize,
}

/// The result of any [`Construction`](crate::api::Construction) build.
#[derive(Debug)]
pub struct BuildOutput {
    /// The emulator (or spanner — then a unit-weight subgraph of `G`).
    pub emulator: Emulator,
    /// Certified stretch pair `(α, β)`, when the construction certifies one.
    pub certified: Option<(f64, f64)>,
    /// Proven edge-count upper bound for this input size, when known.
    pub size_bound: Option<f64>,
    /// Per-phase trace (present iff the config asked for `traced` and the
    /// construction supports tracing).
    pub trace: Option<Trace>,
    /// CONGEST execution stats (present for simulator-backed builds).
    pub congest: Option<CongestStats>,
    /// Wall-clock execution stats: thread count, total time, and per-phase
    /// timings for the sharded constructions.
    pub stats: BuildStats,
    /// Registry name of the construction that produced this output.
    pub algorithm: &'static str,
}

impl BuildOutput {
    /// Edge count of the built structure.
    pub fn num_edges(&self) -> usize {
        self.emulator.num_edges()
    }

    /// The certified multiplicative stretch `α` (1.0 when uncertified —
    /// every emulator here is distance-nondecreasing).
    pub fn alpha(&self) -> f64 {
        self.certified.map_or(1.0, |(a, _)| a)
    }

    /// The certified additive stretch `β` (`f64::INFINITY` when this
    /// construction certifies none).
    pub fn beta(&self) -> f64 {
        self.certified.map_or(f64::INFINITY, |(_, b)| b)
    }

    /// FNV-1a fingerprint of the exact insertion stream — every edge with
    /// its weight and full provenance, in insertion order. Two builds
    /// produce the same fingerprint iff they emitted the identical stream,
    /// which the determinism guarantee (see [`crate::api`]) promises for
    /// any two builds of the same `(graph, config)` at any thread counts.
    /// This is the quantity to key construction caches on and to diff
    /// across processes; it deliberately excludes [`BuildStats`], whose
    /// exploration counters are thread-sensitive.
    pub fn stream_fingerprint(&self) -> u64 {
        crate::emulator::stream_fingerprint(self.emulator.provenance())
    }
}
