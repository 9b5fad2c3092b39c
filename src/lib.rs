//! Ultra-Sparse Near-Additive Emulators — facade crate.
//!
//! This crate re-exports the whole reproduction of Elkin & Matar,
//! *Ultra-Sparse Near-Additive Emulators* (PODC 2021):
//!
//! * [`graph`] — CSR graphs, generators, BFS/Dijkstra, exact distances.
//! * [`congest`] — deterministic synchronous CONGEST-model simulator.
//! * [`core`] — the paper's constructions: centralized Algorithm 1,
//!   the distributed CONGEST algorithm, the fast centralized simulation,
//!   and the §4 spanner variant — all behind the unified [`api`].
//! * [`baselines`] — EP01, TZ06, EN17a emulators and the EM19 spanner,
//!   adapted onto the same [`api::Construction`] trait.
//! * [`workers`] — per-shard worker execution: typed frontier messages
//!   over a channel (threads) or socket (`usnae-worker` over TCP)
//!   transport, with measured message statistics.
//! * [`eval`] — experiment harness regenerating every table/figure.
//! * [`registry`] — the complete algorithm catalogue (paper + baselines).
//! * [`book`] — the architecture book: the layer map
//!   ([`book::architecture`]), the serve wire protocol
//!   ([`book::protocol`]), and the daemon operator guide
//!   ([`book::serving`]), with every code example compiled as a doctest.
//!
//! # Quickstart
//!
//! ```
//! use usnae::api::{Algorithm, Emulator};
//! use usnae::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_connected(256, 0.05, 7)?;
//! let out = Emulator::builder(&g)
//!     .epsilon(0.5)
//!     .kappa(4)
//!     .algorithm(Algorithm::Centralized)
//!     .build()?;
//! assert!(out.num_edges() as f64 <= out.size_bound.unwrap());
//! # Ok(())
//! # }
//! ```
//!
//! Algorithm-generic code iterates the [`registry`] instead of hardcoding
//! construction lists:
//!
//! ```
//! use usnae::api::BuildConfig;
//! use usnae::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::grid2d(8, 8)?;
//! for c in usnae::registry::all() {
//!     let out = c.build(&g, &BuildConfig::default())?;
//!     println!("{:>20}: {} edges", c.name(), out.num_edges());
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Caching
//!
//! Builds are pure functions of `(graph, config)`, so they can be paid
//! once: point a builder (or `usnae run --cache DIR`) at a construction
//! cache and the warm run loads a verified snapshot instead of rebuilding
//! — `stats.cache` reports the hit and the stream fingerprint proves the
//! loaded output identical to a rebuild (see `usnae::core::cache`). The
//! builder's directory cache is unbounded; long-running services use the
//! byte-budgeted [`core::cache::EvictingCache`] view of the same
//! directory format instead — deterministic LRU eviction, atomic
//! publication, lock-free concurrent readers (see
//! [`book::serving`]):
//!
//! ```
//! use usnae::api::{Algorithm, CacheStatus, Emulator};
//! use usnae::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("usnae-doc-cache-{}", std::process::id()));
//! let g = generators::gnp_connected(128, 0.06, 7)?;
//! let build = |()| {
//!     Emulator::builder(&g)
//!         .kappa(4)
//!         .algorithm(Algorithm::Centralized)
//!         .cache_dir(&dir)
//!         .build()
//! };
//! let cold = build(())?; // runs the construction, stores a snapshot
//! let warm = build(())?; // loads + verifies the snapshot; no phase work
//! assert_eq!(warm.stats.cache, CacheStatus::Hit);
//! assert_eq!(warm.stream_fingerprint(), cold.stream_fingerprint());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! # Query serving
//!
//! A build is half the product; the other half is answering distance
//! queries from it. [`api::QueryEngine`] serves certified answers —
//! `d_G ≤ d̂ ≤ α·d_G + β` with `(α, β)` threaded from the construction's
//! proof object — from a live [`api::BuildOutput`] or straight from a
//! stored snapshot ([`QueryEngine::open`](api::QueryEngine::open) over any
//! [`api::OutputBackend`], no rebuild). Batched queries share one SSSP
//! tree per distinct source, single queries go through a bounded
//! deterministic LRU, and [`with_landmarks`](api::QueryEngine::with_landmarks)
//! precomputes a landmark index for O(k) approximate answers under the
//! widened certificate `(α, β + 2R)`. Answers are pure functions of the
//! pair — identical across backends, batching, and thread counts
//! (enforced registry-wide by `tests/query_conformance.rs` against golden
//! fixtures; `usnae query` is the CLI form, `cargo bench --bench queries`
//! the QPS/latency table):
//!
//! ```
//! use usnae::api::Emulator;
//! use usnae::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::grid2d(8, 8)?;
//! let engine = Emulator::builder(&g).kappa(4).query_engine()?;
//! let (alpha, beta) = engine.guarantee();
//! for a in engine.distances(&[(0, 63), (0, 7), (0, 56)]) {
//!     let d = a.value.expect("grid is connected") as f64;
//!     assert!(d <= alpha * 14.0 + beta); // diameter 14
//! }
//! assert_eq!(engine.stats().tree_builds, 1); // one source, one Dijkstra
//! # Ok(())
//! # }
//! ```
//!
//! # Always-on serving
//!
//! `usnae serve` keeps one process warm behind a framed Unix-socket
//! protocol: builds and query batches ship to the daemon
//! (`usnae run|query ... --connect SOCKET`), warm jobs are answered
//! zero-copy from a shared byte-budgeted cache without ever queueing,
//! and cold builds run on a bounded worker pool behind typed admission
//! control. A daemon-built snapshot is byte-identical to a local build
//! (enforced registry-wide by `tests/serve_conformance.rs`); operator
//! guidance lives in [`book::serving`], the wire grammar in
//! [`book::protocol`]:
//!
//! ```no_run
//! # #[cfg(unix)]
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use usnae::api::BuildConfig;
//! use usnae::core::serve::{Client, JobSpec};
//!
//! let mut client = Client::connect("/run/usnae.sock")?;
//! let job = JobSpec::new("/data/graph.txt", "centralized", &BuildConfig::default());
//! let meta = client.build(&job, |_, _, _| {})?;
//! println!("{} ({}): {:016x}", meta.algorithm, meta.cache, meta.stream_fingerprint);
//! let answers = client.query(&job, &[(0, 9)], 0)?;
//! assert_eq!(answers.distances.len(), 1); // certified: d ≤ α·d_G + β
//! # Ok(())
//! # }
//! # #[cfg(not(unix))]
//! # fn main() {}
//! ```
//!
//! # Partitioned builds
//!
//! For the million-vertex regime the input graph can be split into
//! per-worker **CSR shards** (contiguous vertex ranges with local
//! adjacency arrays and cut-edge frontier lists — `usnae::graph::partition`);
//! the sharding-capable constructions then read their per-center
//! explorations from the local shards instead of one shared array. The
//! built structure is byte-identical for every shard count and both
//! partition policies (enforced registry-wide by
//! `tests/partition_conformance.rs`):
//!
//! ```
//! use usnae::api::{Emulator, PartitionPolicy};
//! use usnae::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_connected(256, 0.05, 7)?;
//! let shared = Emulator::builder(&g).kappa(4).build()?;
//! let sharded = Emulator::builder(&g)
//!     .kappa(4)
//!     .threads(2)
//!     .partition(PartitionPolicy::DegreeBalanced, 4)
//!     .build()?;
//! assert_eq!(
//!     sharded.emulator.provenance(),
//!     shared.emulator.provenance(),
//! );
//! assert_eq!(sharded.stats.shards.len(), 4); // per-shard layout records
//! # Ok(())
//! # }
//! ```
//!
//! # Distributed execution
//!
//! A partitioned build can hand each shard to its own **worker** — an OS
//! thread (`channel` transport) or a `usnae-worker` process reached over
//! TCP (`socket` transport) — that owns the shard's adjacency and answers
//! typed frontier messages behind a deterministic round barrier. The
//! built structure stays byte-identical to the in-process build
//! (enforced registry-wide by `tests/worker_conformance.rs`), and the
//! measured message complexity lands in `stats.messages`:
//!
//! ```
//! use usnae::api::{Emulator, PartitionPolicy, TransportKind};
//! use usnae::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_connected(256, 0.05, 7)?;
//! let shared = Emulator::builder(&g).kappa(4).build()?;
//! let workers = Emulator::builder(&g)
//!     .kappa(4)
//!     .partition(PartitionPolicy::Range, 4)
//!     .transport(TransportKind::Channel) // one worker thread per shard
//!     .build()?;
//! assert_eq!(
//!     workers.emulator.provenance(),
//!     shared.emulator.provenance(),
//! );
//! let stats = workers.stats.messages.expect("worker builds are measured");
//! assert!(stats.rounds > 0 && stats.messages > 0 && stats.bytes > 0);
//! # Ok(())
//! # }
//! ```
//!
//! # Out-of-core storage
//!
//! Past the heap's reach, the whole pipeline runs file-backed: the
//! streaming loader (`usnae::graph::io::stream_edge_list_to_csr_file`)
//! two-passes a text edge list into an on-disk CSR without materializing
//! the graph, [`MappedGraph`](graph::MappedGraph) opens that file
//! zero-copy, `build_mapped` produces the byte-identical output of a
//! heap build, and a stored snapshot serves queries through
//! [`api::MappedBackend`] + [`QueryEngine::open`](api::QueryEngine::open)
//! with no record decode and no heap emulator — resident memory is
//! bounded by the ultra-sparse snapshot, not the graph
//! (`tests/out_of_core_conformance.rs` locks the identities
//! registry-wide; CI's `out-of-core` job enforces the RSS ceilings at
//! 800k vertices, and `exp_out_of_core` reproduces the 2M-vertex
//! demonstration):
//!
//! ```
//! use usnae::api::{BuildConfig, MappedBackend, QueryEngine};
//! use usnae::core::cache::{CacheKey, Snapshot};
//! use usnae::graph::{generators, MappedGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("usnae-doc-ooc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir)?;
//! let g = generators::grid2d(8, 8)?;
//! g.write_csr_file(&dir.join("g.csr"))?;
//! let mg = MappedGraph::open(&dir.join("g.csr"))?;          // zero-copy input
//! let cfg = BuildConfig::default();
//! let c = usnae::registry::find("centralized").expect("registered");
//! let out = c.build_mapped(&mg, &cfg)?;                     // identical to heap build
//! let snap = Snapshot::from_output(CacheKey::new(&mg, c.name(), &cfg), &out);
//! std::fs::write(dir.join("g.usnae"), snap.encode())?;
//! let backend = MappedBackend::open(&dir.join("g.usnae"))?; // zero-copy serving
//! let engine = QueryEngine::open(&backend)?;
//! assert!(engine.store().is_mapped()); // served from the file's own pages
//! assert_eq!(
//!     engine.distance(0, 63).value,
//!     out.into_query_engine().distance(0, 63).value,
//! );
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub use usnae_baselines as baselines;
pub use usnae_congest as congest;
pub use usnae_core as core;
pub use usnae_core::api;
pub use usnae_eval as eval;
pub use usnae_graph as graph;
pub use usnae_workers as workers;

/// The complete algorithm catalogue: five paper constructions followed by
/// the four baseline lineages (re-export of `usnae_baselines::registry`).
pub mod registry {
    pub use usnae_baselines::registry::{all, baselines, emulators, find, names, spanners};
}

/// The architecture book, compiled into the docs: each chapter is a
/// `docs/*.md` file included verbatim, so its code examples are
/// doctests — the book cannot drift from the API it describes.
pub mod book {
    #[doc = include_str!("../docs/ARCHITECTURE.md")]
    pub mod architecture {}

    #[doc = include_str!("../docs/PROTOCOL.md")]
    pub mod protocol {}

    #[doc = include_str!("../docs/SERVING.md")]
    pub mod serving {}
}
