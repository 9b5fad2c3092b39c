//! The unified construction API: one builder, one config, one registry.
//!
//! Every emulator/spanner algorithm in the workspace — the four paper
//! constructions here, the four baselines via the adapter in
//! `usnae-baselines` — is reachable through the same three entry points:
//!
//! * [`EmulatorBuilder`] — a fluent, validated front door for one-off
//!   builds: pick an [`Algorithm`], set `ε/κ/ρ`, processing order, raw-ε
//!   mode, tracing, worker threads, and get a [`BuildOutput`] carrying the
//!   emulator, the certified `(α, β)` pair, optional per-phase traces,
//!   execution stats ([`BuildStats`]) and (for CONGEST constructions) the
//!   simulator metrics. `.threads(n)` shards the per-center explorations
//!   (phase 0's dominant cost) over `n` workers; the output is
//!   byte-identical to the sequential build for every thread count.
//! * [`Construction`] — the object-safe trait each algorithm implements, so
//!   experiments, benchmarks and the CLI can treat all of them uniformly.
//! * [`registry`] — the catalogue of paper constructions
//!   ([`registry::all`]); `usnae_baselines::registry::all` extends it with
//!   the baseline lineages.
//!
//! # Determinism guarantee
//!
//! Every registry construction is a **pure function of
//! `(graph, BuildConfig)`**: the built edge stream (insertion order and
//! provenance included), the trace, and the certified `(α, β)` pair are
//! identical for every thread count *and* for every run — including the
//! CONGEST simulations, whose drivers emit edges in a defined order
//! (ascending center/neighbor id) and whose simulator schedules messages
//! deterministically. [`BuildStats`] is the one thread-sensitive corner:
//! wall-clock durations always vary, and `stats.threads` / per-phase
//! exploration counters reflect the requested fan-out (the adaptive
//! prefetch launches more — wasted, output-irrelevant — explorations at
//! higher thread counts); the counters are still *run*-invariant for a
//! fixed thread count, so cache keys should fingerprint the edge stream
//! ([`BuildOutput::stream_fingerprint`]), never the stats.
//! The workspace parity suite (`tests/parallel_determinism.rs`) enforces
//! both invariances, exact-stream, with no per-algorithm exceptions; this
//! is the foundation for caching built emulators and validating sharded
//! merges against a fixed reference.
//!
//! # Caching
//!
//! Because every construction is a pure function of `(graph, config)`, a
//! built output can be stored once and reused by every later process:
//! [`EmulatorBuilder::cache_dir`] (or the CLI's `usnae run --cache DIR`)
//! keys a directory of on-disk snapshots by **(canonical graph
//! fingerprint, algorithm name, output-relevant config digest)** — see
//! [`crate::cache`]. A warm hit is safe exactly when the determinism
//! guarantee above holds, and it is *checked*, not assumed: each snapshot
//! stores the [`stream fingerprint`](BuildOutput::stream_fingerprint) of
//! the exact insertion stream, a load recomputes it from the decoded
//! records (plus a whole-file checksum), and anything that fails falls
//! back to a rebuild. Hits are visible in [`BuildStats`]: `stats.cache ==
//! CacheStatus::Hit` with an empty phase list, because no phase work ran.
//! Two deliberate non-keys: `threads` (any thread count produces the same
//! stream, so one entry serves all) and `traced` (traced builds bypass the
//! cache — snapshots store the stream, not the in-memory [`Trace`]).
//! `usnae cache {ls,clear,verify}` manages a cache directory; `verify`
//! recomputes every stored fingerprint, and CI runs the same check.
//! The builder's directory cache is unbounded and append-only — right
//! for one-shot runs, wrong for a long-running process. Services use
//! [`EvictingCache`](crate::cache::EvictingCache), the byte-budgeted
//! view of the same directory format: deterministic LRU-by-bytes
//! eviction, atomic publication (temp file + rename), lock-free
//! concurrent readers, and counters for the `usnae serve` daemon's
//! `stats` endpoint ([`crate::serve`]) — an evicted entry simply
//! rebuilds read-through on its next use, provably byte-identical.
//!
//! # Partitioned builds
//!
//! [`EmulatorBuilder::partition`] (CLI: `usnae run --shards N
//! [--partition range|degree-balanced]`) splits the input graph into
//! per-worker **CSR shards** — contiguous vertex ranges with their own
//! local adjacency arrays and cut-edge frontier lists (see
//! `usnae_graph::partition`) — and the per-center explorations of
//! `centralized`, `fast-centralized`, `spanner`, `ep01`, `en17a`, and
//! `em19` then read from the local shards instead of the one shared
//! adjacency array. Because each shard stores its owned neighbor lists
//! verbatim, the sharded build is **byte-identical** (stream, trace, and
//! fingerprint) to the unsharded one for every shard count and both
//! partition policies — enforced registry-wide by
//! `tests/partition_conformance.rs` and a CI `shard-matrix` leg, with
//! golden reference streams in `tests/data/` catching shard-merge
//! regressions without rebuilding the oracle. A partitioned build reports
//! one [`ShardTiming`](crate::exec::ShardTiming) per shard in
//! [`BuildStats::shards`] (owned vertices, local/cut edges, layout build
//! time); the CONGEST simulations and `tz06` accept the knobs but keep
//! the shared array — they run no sharded exploration phase. `shards`
//! and the policy are deliberately **not** part of the cache key
//! ([`BuildConfig::stable_digest`]): one cached entry serves every
//! layout, exactly like `threads`.
//!
//! # Distributed execution
//!
//! [`EmulatorBuilder::transport`] (CLI: `usnae run --transport
//! {inproc,channel,socket}`) moves the sharded exploration phases from
//! the in-process fan-out to a **worker pool**: one worker per CSR shard,
//! each owning its shard's adjacency and answering typed frontier
//! messages through a [`TransportKind`] —
//!
//! * [`TransportKind::Inproc`] (default) — no pool; the explorations read
//!   the layout directly, as in a plain partitioned build.
//! * [`TransportKind::Channel`] — one OS thread per shard, bounded
//!   channels, a deterministic round barrier.
//! * [`TransportKind::Socket`] — one TCP connection per shard speaking a
//!   length-prefixed, checksummed binary protocol to a `usnae-worker
//!   --listen` process: loopback children by default, pre-started remote
//!   workers via `USNAE_WORKERS_ADDR` (see `usnae_workers`).
//!
//! A worker transport requires a partitioned layout (`shards >= 1`;
//! validated as [`ParamError::TransportNeedsShards`](crate::error::ParamError)).
//! The round protocol is deterministic — per-round results are merged in
//! shard order before the driver consumes them — so the built stream,
//! trace, and fingerprint are **byte-identical** to the shared-array
//! build for every transport; `tests/worker_conformance.rs` enforces this
//! registry-wide, including under randomized worker delays. What *does*
//! change is [`BuildStats`]: `stats.transport` records the transport that
//! ran and `stats.messages` carries the measured [`MessageStats`]
//! (rounds, messages, bytes, per-shard-pair breakdown). Worker failures
//! never corrupt an output — the phases fall back in-process and the
//! build fails loudly with [`BuildError::Worker`] — and every worker
//! build re-merges the partitioned layout before returning. Like
//! `threads` and `shards`, the transport is **not** part of the cache
//! key: one cached entry serves every execution strategy.
//!
//! # Query serving
//!
//! The construction side ends at a [`BuildOutput`]; the serving side
//! starts at a [`QueryEngine`] (see [`crate::oracle`]). The builder's
//! terminal [`EmulatorBuilder::query_engine`] is the one-liner — build
//! (through the cache when configured) and serve:
//!
//! ```
//! use usnae_core::api::Emulator;
//! use usnae_graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::grid2d(8, 8)?;
//! let engine = Emulator::builder(&g).kappa(4).query_engine()?;
//! let d = engine.distance(0, 63);
//! // Every answer is certified: d_G(u,v) <= d.value <= α·d_G(u,v) + β.
//! assert!(d.value.is_some() && d.alpha >= 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! An engine can also be opened over any [`OutputBackend`] — in
//! particular a [`MappedBackend`] over a cache entry, so a stored
//! build answers queries in a later process **without re-running the
//! construction** ([`QueryEngine::open`]); the backend carries the
//! certified `(α, β)` pair with the stream ([`OutputBackend::certified`]).
//! Batched lookups ([`QueryEngine::distances`]) share SSSP trees across
//! the batch, single lookups go through a bounded, deterministic
//! per-source LRU, and [`QueryEngine::with_landmarks`] precomputes a
//! highest-degree-first landmark index for O(k) approximate answers
//! under a *measured* certificate `(α, β + 2R)` (`R` = covering
//! radius). Answers are a pure function of the pair queried — cache
//! state, batching, backends, and thread counts never change them
//! (`tests/query_conformance.rs` enforces this registry-wide).
//!
//! # Out-of-core storage
//!
//! Neither end of that pipeline needs its big array on the heap. Every
//! graph view in `usnae_graph` is generic over an `AdjStorage` backend:
//! [`Graph`](usnae_graph::Graph) is the heap CSR,
//! [`MappedGraph`](usnae_graph::MappedGraph) the file-backed one
//! (`Graph::write_csr_file` → `MappedGraph::open`, or
//! `usnae_graph::io::stream_edge_list_to_csr_file`, which two-passes a
//! text edge list straight into a CSR file without ever materializing
//! the graph). [`Construction::build_mapped`] runs a construction over
//! the mapped file — the output is byte-identical to the heap build, and
//! the cache key fingerprints identically, so one cache serves both
//! storages. On the serving end, [`MappedBackend`] opens a stored v4
//! snapshot and [`QueryEngine::open`] answers queries **zero-copy** from
//! its mmap'd `EMU_CSR` section: no record decode, no heap emulator,
//! resident memory bounded by the (ultra-sparse) snapshot rather than
//! the graph. `tests/out_of_core_conformance.rs` locks both identities
//! registry-wide; CI's `out-of-core` job additionally enforces the
//! peak-RSS ceilings on an 800k-vertex, degree-32 pipeline.
//!
//! ```
//! use usnae_core::api::{registry, BuildConfig, MappedBackend, QueryEngine};
//! use usnae_core::cache::{CacheKey, Snapshot};
//! use usnae_graph::{generators, MappedGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("usnae-ooc-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! // A CSR file on disk (the streaming loader writes these straight
//! // from a text edge list; here one is spelled from a small graph).
//! let g = generators::grid2d(8, 8)?;
//! let csr = dir.join("grid.csr");
//! g.write_csr_file(&csr)?;
//!
//! // Build over the file-backed graph; store the snapshot.
//! let mg = MappedGraph::open(&csr)?;
//! let cfg = BuildConfig::default();
//! let c = registry::find("centralized").expect("registered");
//! let out = c.build_mapped(&mg, &cfg)?;
//! let snap = dir.join("grid.usnae");
//! let entry = Snapshot::from_output(CacheKey::new(&mg, c.name(), &cfg), &out);
//! std::fs::write(&snap, entry.encode())?;
//!
//! // Serve it zero-copy: no graph, no decode, no heap emulator.
//! let backend = MappedBackend::open(&snap)?;
//! let engine = QueryEngine::open(&backend)?;
//! assert!(engine.store().is_mapped());
//! let served = engine.distance(0, 63);
//! assert_eq!(served.value, out.into_query_engine().distance(0, 63).value);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart
//!
//! ```
//! use usnae_core::api::{Algorithm, Emulator};
//! use usnae_graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_connected(200, 0.05, 7)?;
//! let out = Emulator::builder(&g)
//!     .epsilon(0.5)
//!     .kappa(4)
//!     .threads(2) // shard phase-0 explorations; output identical to threads(1)
//!     .algorithm(Algorithm::Centralized)
//!     .build()?;
//! // Determinism: rebuilding with the same config — at any thread count —
//! // reproduces the exact same edge stream.
//! let again = Emulator::builder(&g)
//!     .epsilon(0.5)
//!     .kappa(4)
//!     .algorithm(Algorithm::Centralized)
//!     .build()?;
//! assert_eq!(out.emulator.provenance(), again.emulator.provenance());
//! let (alpha, beta) = out.certified.expect("paper constructions certify stretch");
//! assert!(alpha >= 1.0 && beta >= 0.0);
//! assert!(out.emulator.num_edges() as f64 <= out.size_bound.unwrap());
//! assert_eq!(out.stats.threads, 2); // wall-clock stats ride along
//! # Ok(())
//! # }
//! ```
//!
//! The registry drives algorithm-generic code:
//!
//! ```
//! use usnae_core::api::{registry, BuildConfig};
//! use usnae_graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::grid2d(8, 8)?;
//! let cfg = BuildConfig::default();
//! for c in registry::all() {
//!     let out = c.build(&g, &cfg)?;
//!     assert!(out.emulator.num_edges() > 0, "{}", c.name());
//! }
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod config;
pub mod construction;
pub mod constructions;
pub mod output;
pub mod registry;

pub use crate::cache::MappedSnapshot;
pub use crate::centralized::ProcessingOrder;
pub use crate::emulator::{EmuCsr, Emulator};
pub use crate::exec::{MessageStats, PairStats, TransportKind, WORKERS_ADDR_ENV};
pub use crate::oracle::{Certified, LandmarkIndex, QueryEngine, QueryStats};
pub use backend::{
    HeapBackend, MappedBackend, OutputBackend, RemotePartitionedBackend, REMOTE_FETCH_CHUNK,
};
pub use config::{Algorithm, BuildConfig};
pub use construction::{require_inproc, BuildError, Construction, Supports};
pub use output::{
    BuildOutput, BuildStats, CacheStatus, CongestStats, PhaseSummary, PhaseTiming, Trace,
};
pub use usnae_graph::partition::{PartitionPolicy, ShardTiming};

use usnae_graph::Graph;

/// Fluent builder over the paper constructions.
///
/// Obtained from [`Emulator::builder`]; terminal [`build`](Self::build)
/// validates the parameters, runs the selected [`Algorithm`], and returns a
/// [`BuildOutput`].
#[derive(Debug, Clone)]
pub struct EmulatorBuilder<'g> {
    graph: &'g Graph,
    algorithm: Algorithm,
    config: BuildConfig,
    cache_dir: Option<std::path::PathBuf>,
}

impl<'g> EmulatorBuilder<'g> {
    /// Starts a builder over `g` with [`Algorithm::Centralized`] and the
    /// default [`BuildConfig`].
    pub fn new(graph: &'g Graph) -> Self {
        EmulatorBuilder {
            graph,
            algorithm: Algorithm::Centralized,
            config: BuildConfig::default(),
            cache_dir: None,
        }
    }

    /// Selects the construction to run.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the stretch parameter `ε` (validated at build time).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the sparsity parameter `κ`.
    pub fn kappa(mut self, kappa: u32) -> Self {
        self.config.kappa = kappa;
        self
    }

    /// Sets the round exponent `ρ` (used by the §3/§4 constructions).
    pub fn rho(mut self, rho: f64) -> Self {
        self.config.rho = rho;
        self
    }

    /// Skips the paper's ε-rescaling (see
    /// [`CentralizedParams::with_raw_epsilon`](crate::params::CentralizedParams::with_raw_epsilon)).
    pub fn raw_epsilon(mut self, raw: bool) -> Self {
        self.config.raw_epsilon = raw;
        self
    }

    /// Sets the center processing order (Algorithm 1 only; others ignore it).
    pub fn order(mut self, order: ProcessingOrder) -> Self {
        self.config.order = order;
        self
    }

    /// Retains the per-phase [`Trace`] on the output.
    pub fn traced(mut self, traced: bool) -> Self {
        self.config.traced = traced;
        self
    }

    /// Seed for randomized constructions (the baselines; paper constructions
    /// are deterministic and ignore it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Worker threads for the sharded exploration phases (default 1 =
    /// sequential; must be ≥ 1, validated at build time). The built
    /// structure is byte-identical for every thread count — only
    /// [`BuildOutput::stats`] timings change.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Partitioned-graph layout: split the input into `shards` per-worker
    /// CSR shards under `policy` and run the per-center explorations
    /// against the local shards instead of the shared adjacency array
    /// (`shards == 0`, the default, keeps the shared array). The built
    /// structure is byte-identical for every `(policy, shards)`; the
    /// per-shard layout records land in [`BuildStats::shards`].
    pub fn partition(
        mut self,
        policy: usnae_graph::partition::PartitionPolicy,
        shards: usize,
    ) -> Self {
        self.config.partition = policy;
        self.config.shards = shards;
        self
    }

    /// Execution transport for the sharded exploration phases (default
    /// [`TransportKind::Inproc`]; worker transports require
    /// [`partition`](Self::partition) with `shards >= 1`, validated at
    /// build time). The built structure is byte-identical for every
    /// transport; a worker build additionally reports its measured
    /// [`MessageStats`] in [`BuildStats::messages`]. See the
    /// [module docs](self#distributed-execution).
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.config.transport = transport;
        self
    }

    /// Consults (and fills) the read-write construction cache rooted at
    /// `dir`: a warm entry for this `(graph, algorithm, config)` is loaded,
    /// verified against its stored stream fingerprint, and returned without
    /// running any phase (`stats.cache == CacheStatus::Hit`); otherwise the
    /// construction runs and the result is stored. See [`crate::cache`].
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The accumulated configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// Runs the selected construction (through the construction cache when
    /// one was configured — see [`cache_dir`](Self::cache_dir)).
    ///
    /// # Errors
    ///
    /// [`BuildError::Param`] on invalid `ε/κ/ρ`; [`BuildError::Congest`]
    /// when a CONGEST simulation violates its contract;
    /// [`BuildError::Cache`] when a configured cache cannot store the
    /// fresh result.
    pub fn build(self) -> Result<BuildOutput, BuildError> {
        let construction = self.algorithm.construction();
        match &self.cache_dir {
            Some(dir) => {
                crate::cache::build_cached(construction.as_ref(), self.graph, &self.config, dir)
            }
            None => construction.build(self.graph, &self.config),
        }
    }

    /// Like [`build`](Self::build), but hands the result straight to the
    /// serving side: a [`QueryEngine`] over the built structure, carrying
    /// the certified `(α, β)` pair. See the
    /// [module docs](self#query-serving).
    ///
    /// # Errors
    ///
    /// Exactly the [`build`](Self::build) errors.
    pub fn query_engine(self) -> Result<QueryEngine, BuildError> {
        Ok(self.build()?.into_query_engine())
    }
}

impl Emulator {
    /// Entry point of the fluent construction API:
    /// `Emulator::builder(&g).epsilon(0.5).kappa(4).build()?`.
    pub fn builder(g: &Graph) -> EmulatorBuilder<'_> {
        EmulatorBuilder::new(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;

    #[test]
    fn builder_defaults_run_centralized() {
        let g = generators::gnp_connected(120, 0.06, 3).unwrap();
        let out = Emulator::builder(&g).build().unwrap();
        assert_eq!(out.algorithm, "centralized");
        assert!(out.certified.is_some());
        assert!(out.trace.is_none(), "tracing is opt-in");
        assert!(out.emulator.num_edges() as f64 <= out.size_bound.unwrap());
    }

    #[test]
    fn builder_traced_exposes_phases() {
        let g = generators::grid2d(9, 9).unwrap();
        let out = Emulator::builder(&g).kappa(3).traced(true).build().unwrap();
        let trace = out.trace.expect("traced build keeps its trace");
        assert!(!trace.phase_summaries().is_empty());
        assert!(trace.as_centralized().is_some());
    }

    #[test]
    fn builder_order_matters_on_star() {
        // The §2.1.1 example: hubs-first superclusters, hubs-last does not.
        let g = generators::star(9).unwrap();
        let first = Emulator::builder(&g)
            .kappa(2)
            .order(ProcessingOrder::ByDegreeDesc)
            .traced(true)
            .build()
            .unwrap();
        let last = Emulator::builder(&g)
            .kappa(2)
            .order(ProcessingOrder::ByDegreeAsc)
            .traced(true)
            .build()
            .unwrap();
        let sc = |o: &BuildOutput| o.trace.as_ref().unwrap().phase_summaries()[0].num_superclusters;
        assert_eq!(sc(&first), 1);
        assert_eq!(sc(&last), 0);
    }

    #[test]
    fn builder_threads_keep_output_identical() {
        let g = generators::gnp_connected(150, 0.05, 8).unwrap();
        let sequential = Emulator::builder(&g).kappa(4).build().unwrap();
        assert_eq!(sequential.stats.threads, 1);
        let parallel = Emulator::builder(&g).kappa(4).threads(4).build().unwrap();
        assert_eq!(parallel.stats.threads, 4);
        assert_eq!(
            sequential.emulator.provenance(),
            parallel.emulator.provenance()
        );
        assert!(!parallel.stats.phases.is_empty());
        assert!(parallel.stats.phase0().is_some());
    }

    #[test]
    fn builder_partition_keeps_output_identical_and_records_shards() {
        use usnae_graph::partition::PartitionPolicy;
        let g = generators::gnp_connected(150, 0.05, 12).unwrap();
        let shared = Emulator::builder(&g).kappa(4).build().unwrap();
        assert!(shared.stats.shards.is_empty(), "shared-array build");
        for policy in PartitionPolicy::all() {
            let sharded = Emulator::builder(&g)
                .kappa(4)
                .threads(2)
                .partition(policy, 4)
                .build()
                .unwrap();
            assert_eq!(
                shared.emulator.provenance(),
                sharded.emulator.provenance(),
                "{policy}"
            );
            assert_eq!(sharded.stats.shards.len(), 4, "{policy}");
            assert_eq!(
                sharded
                    .stats
                    .shards
                    .iter()
                    .map(|s| s.vertices)
                    .sum::<usize>(),
                g.num_vertices(),
                "{policy}: shards own every vertex exactly once"
            );
        }
    }

    #[test]
    fn builder_transport_keeps_output_identical_and_measures_messages() {
        use usnae_graph::partition::PartitionPolicy;
        let g = generators::gnp_connected(120, 0.05, 23).unwrap();
        let shared = Emulator::builder(&g).kappa(4).build().unwrap();
        assert_eq!(shared.stats.transport, TransportKind::Inproc);
        assert!(shared.stats.messages.is_none());
        let workers = Emulator::builder(&g)
            .kappa(4)
            .threads(2)
            .partition(PartitionPolicy::Range, 3)
            .transport(TransportKind::Channel)
            .build()
            .unwrap();
        assert_eq!(shared.emulator.provenance(), workers.emulator.provenance());
        assert_eq!(workers.stats.transport, TransportKind::Channel);
        let stats = workers.stats.messages.as_ref().expect("measured stats");
        assert!(stats.rounds > 0 && stats.messages > 0 && stats.bytes > 0);
    }

    #[test]
    fn builder_rejects_worker_transport_without_shards() {
        let g = generators::path(6).unwrap();
        assert!(matches!(
            Emulator::builder(&g)
                .transport(TransportKind::Channel)
                .build(),
            Err(BuildError::Param(_))
        ));
    }

    #[test]
    fn builder_rejects_zero_threads() {
        let g = generators::path(6).unwrap();
        for algo in Algorithm::all() {
            assert!(
                matches!(
                    Emulator::builder(&g).algorithm(algo).threads(0).build(),
                    Err(BuildError::Param(_))
                ),
                "{algo:?} must reject threads = 0"
            );
        }
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        let g = generators::path(6).unwrap();
        assert!(matches!(
            Emulator::builder(&g).epsilon(2.0).build(),
            Err(BuildError::Param(_))
        ));
        assert!(matches!(
            Emulator::builder(&g).kappa(1).build(),
            Err(BuildError::Param(_))
        ));
        assert!(matches!(
            Emulator::builder(&g)
                .algorithm(Algorithm::FastCentralized)
                .rho(0.9)
                .build(),
            Err(BuildError::Param(_))
        ));
    }

    #[test]
    fn builder_runs_every_algorithm() {
        let g = generators::gnp_connected(70, 0.08, 5).unwrap();
        for algo in Algorithm::all() {
            let out = Emulator::builder(&g).algorithm(algo).build().unwrap();
            assert!(out.emulator.num_edges() > 0, "{algo:?}");
            assert_eq!(out.algorithm, algo.name());
            if algo.runs_on_congest() {
                let stats = out.congest.expect("CONGEST builds carry metrics");
                assert!(stats.metrics.rounds > 0, "{algo:?}");
                assert_eq!(stats.knowledge_violations, 0, "{algo:?}");
            }
        }
    }

    #[test]
    fn distributed_and_fast_agree_on_phase0_popularity() {
        let g = generators::gnp_connected(90, 0.08, 17).unwrap();
        let dist = Emulator::builder(&g)
            .algorithm(Algorithm::Distributed)
            .traced(true)
            .build()
            .unwrap();
        let fast = Emulator::builder(&g)
            .algorithm(Algorithm::FastCentralized)
            .traced(true)
            .build()
            .unwrap();
        let d = dist.trace.unwrap();
        let f = fast.trace.unwrap();
        let d0 = d.as_distributed().unwrap()[0].num_popular;
        let f0 = f.as_sai().unwrap().phases[0].num_popular;
        assert_eq!(d0, f0);
    }
}
