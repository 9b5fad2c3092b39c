//! The exploration engine: one object that decides *where* a
//! construction's sharded exploration phases run.
//!
//! Every sharded construction (centralized / fast-centralized / spanner
//! and the EP01/EN17a/EM19 baselines) funnels its bulk graph work through
//! four primitives — sorted distance balls, the neighboring centers within
//! them, sparse BFS explorations with parents ([`Exploration`]: each
//! source's settled list, never `O(n)` per source), and ruling-set
//! carving. [`Engine`] owns the dispatch:
//!
//! * **Inproc** (the default): the primitives run against the build's
//!   [`GraphView`] via the `usnae_graph::par` fan-out — the shared
//!   adjacency array or local CSR shards, exactly as before.
//! * **Channel / Socket** ([`TransportKind`]): the engine spawns a
//!   [`WorkerPool`] over the partitioned layout and ships each shard's
//!   work to its owning worker, exchanging cut-edge frontiers as typed
//!   messages. The pool's rank protocol reproduces the sequential FIFO
//!   BFS exactly, so the primitives return **byte-identical** results —
//!   the pool only changes where the work runs and adds **measured**
//!   [`MessageStats`] to the build's report.
//!
//! Worker failures never corrupt a build: on the first transport error the
//! engine stashes the typed [`WorkerError`], drops the pool, finishes the
//! build in-process (keeping the inner phase loops infallible), and
//! surfaces the error from [`Engine::finish`] so callers fail loudly
//! instead of silently reporting a worker build that did not happen.

use std::cell::RefCell;
use std::time::Instant;

use crate::api::{BuildConfig, BuildError, BuildOutput, BuildStats, PhaseTiming, Trace};
use crate::emulator::{EdgeProvenance, Emulator};
use crate::sai;
use usnae_graph::par::{self, Exploration};
use usnae_graph::partition::{GraphView, ShardView, ShardedCsr};
use usnae_graph::{AdjStorage, Dist, GraphCore, HeapAdj, VertexId, WeightedEdge};
use usnae_workers::{
    MessageStats, OutputRecord, ShardInit, TransportKind, WorkerError, WorkerPool,
};

/// What [`Engine::finish`] hands back to the build driver: the transport
/// that actually ran, its measured message statistics (worker transports
/// only), and the per-shard layout timings.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The transport the exploration phases ran on.
    pub transport: TransportKind,
    /// Measured exchange statistics (`Some` iff a worker pool ran).
    pub messages: Option<MessageStats>,
    /// Per-shard layout records (empty for shared-array builds).
    pub shards: Vec<usnae_graph::partition::ShardTiming>,
}

/// Dispatches a construction's exploration primitives to the in-process
/// fan-out or a [`WorkerPool`], per [`BuildConfig::transport`].
///
/// Interior mutability (`RefCell`) keeps the primitive methods `&self`, so
/// the exec functions thread one shared `&Engine` through their phase
/// loops exactly like they used to thread `(threads, &GraphView)`.
pub struct Engine<'g, S: AdjStorage = HeapAdj> {
    view: GraphView<'g, S>,
    threads: usize,
    kind: TransportKind,
    pool: RefCell<Option<WorkerPool>>,
    error: RefCell<Option<WorkerError>>,
}

impl<'g, S: AdjStorage> Engine<'g, S> {
    /// Builds the engine for one construction run: partitions the graph
    /// per `cfg` and, for a worker transport on a partitioned layout,
    /// spawns the pool. A pool that cannot be spawned (e.g. the worker
    /// binary is missing) stashes its error and the build runs in-process;
    /// [`finish`](Self::finish) surfaces the failure.
    pub fn new(g: &'g GraphCore<S>, cfg: &BuildConfig) -> Engine<'g, S> {
        let view = cfg.graph_view(g);
        let mut engine = Engine {
            view,
            threads: cfg.threads,
            kind: TransportKind::Inproc,
            pool: RefCell::new(None),
            error: RefCell::new(None),
        };
        if cfg.transport != TransportKind::Inproc {
            if let Some(sharded) = engine.view.as_sharded() {
                let inits = shard_inits(sharded, g.num_vertices());
                match WorkerPool::new(cfg.transport, inits) {
                    Ok(pool) => {
                        engine.kind = cfg.transport;
                        engine.pool = RefCell::new(Some(pool));
                    }
                    Err(e) => engine.error = RefCell::new(Some(e)),
                }
            }
        }
        engine
    }

    /// A plain in-process engine over the shared adjacency array — the
    /// sequential wrappers' entry point.
    pub fn inproc(g: &'g GraphCore<S>, threads: usize) -> Engine<'g, S> {
        Engine {
            view: GraphView::shared(g),
            threads,
            kind: TransportKind::Inproc,
            pool: RefCell::new(None),
            error: RefCell::new(None),
        }
    }

    /// Worker threads of the in-process fan-out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` against the pool if one is live; on a worker error the
    /// pool is dropped and the error stashed for [`finish`](Self::finish),
    /// returning `None` so the caller falls back in-process.
    fn with_pool<T>(&self, f: impl FnOnce(&mut WorkerPool) -> Result<T, WorkerError>) -> Option<T> {
        let mut slot = self.pool.borrow_mut();
        let pool = slot.as_mut()?;
        match f(pool) {
            Ok(out) => Some(out),
            Err(e) => {
                *slot = None; // the transport is unusable after an error
                *self.error.borrow_mut() = Some(e);
                None
            }
        }
    }

    /// Sorted distance balls of every source (the [`par::balls`]
    /// contract): per source, every `(v, dist)` with `dist <= depth`,
    /// ascending by vertex id, the source included at distance 0.
    pub fn balls(&self, sources: &[VertexId], depth: Dist) -> Vec<Vec<(VertexId, Dist)>> {
        if let Some(out) = self.with_pool(|pool| pool.balls(sources, depth)) {
            return out;
        }
        par::balls(&self.view, sources, depth, self.threads)
    }

    /// Neighboring centers of every source (the [`par::centers_within`]
    /// contract): per source, every `(v, dist)` with `is_center[v]`,
    /// `v` not the source and `dist <= depth`, ascending by vertex id.
    pub fn centers_within(
        &self,
        sources: &[VertexId],
        depth: Dist,
        is_center: &[bool],
    ) -> Vec<Vec<(VertexId, Dist)>> {
        if let Some(balls) = self.with_pool(|pool| pool.balls(sources, depth)) {
            return balls
                .into_iter()
                .zip(sources)
                .map(|(ball, &s)| {
                    ball.into_iter()
                        .filter(|&(v, _)| v != s && is_center[v])
                        .collect()
                })
                .collect();
        }
        par::centers_within(&self.view, sources, depth, is_center, self.threads)
    }

    /// Bounded explorations of every source (the [`par::explorations`]
    /// contract): per source, the sparse settled list with FIFO-exact BFS
    /// parents, ascending by vertex id.
    pub fn explorations(&self, sources: &[VertexId], depth: Dist) -> Vec<Exploration> {
        if let Some(out) = self.with_pool(|pool| pool.explorations(sources, depth)) {
            return out;
        }
        par::explorations(&self.view, sources, depth, self.threads)
    }

    /// Deterministic greedy ruling-set carving (the
    /// [`sai::ruling_set_par`] contract), with the candidate balls
    /// computed wherever this engine runs them.
    pub fn ruling_set(&self, w: &[VertexId], delta: Dist) -> Vec<VertexId> {
        sai::ruling_set_impl(
            self.view.num_vertices(),
            w,
            delta,
            self.threads,
            |batch, depth| self.balls(batch, depth),
        )
    }

    /// Tears the engine down: shuts the pool down (collecting the final
    /// [`MessageStats`]) and reports transport + shard timings.
    ///
    /// # Errors
    ///
    /// [`BuildError::Worker`] when the pool could not be spawned, a
    /// transport exchange failed mid-build, or shutdown was unclean — the
    /// in-process fallback keeps the phases running, but the requested
    /// worker build did not happen, so the build must not succeed
    /// silently.
    pub fn finish(self) -> Result<EngineReport, BuildError> {
        let shards = self.view.shard_timings();
        if let Some(e) = self.error.into_inner() {
            return Err(BuildError::Worker(e));
        }
        let messages = match self.pool.into_inner() {
            Some(pool) => Some(pool.shutdown().map_err(BuildError::Worker)?),
            None => None,
        };
        Ok(EngineReport {
            transport: self.kind,
            messages,
            shards,
        })
    }

    /// Like [`finish`](Self::finish), but instead of shutting the pool
    /// down it ships the build's finished insertion stream to the workers
    /// ([`WorkerPool::retain_outputs`]) and keeps the pool alive inside
    /// the returned [`HeldOutputs`] — the handle a
    /// [`RemotePartitionedBackend`](crate::api::RemotePartitionedBackend)
    /// consumes to merge the worker-held partitions lazily. In-process
    /// builds (no pool) return `None` and behave exactly like `finish`.
    ///
    /// The report's `messages` are a snapshot *including* the retain
    /// traffic; the backend folds in the fetch traffic and final shutdown
    /// when it verifies the merge (see [`build_on_engine`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`finish`](Self::finish): a stashed mid-build
    /// [`WorkerError`] or a retain failure surfaces as
    /// [`BuildError::Worker`].
    pub fn finish_retaining(
        self,
        records: &[(WeightedEdge, EdgeProvenance)],
    ) -> Result<(EngineReport, Option<HeldOutputs>), BuildError> {
        let shards = self.view.shard_timings();
        if let Some(e) = self.error.into_inner() {
            return Err(BuildError::Worker(e));
        }
        let Some(mut pool) = self.pool.into_inner() else {
            return Ok((
                EngineReport {
                    transport: self.kind,
                    messages: None,
                    shards,
                },
                None,
            ));
        };
        let wire: Vec<OutputRecord> = records
            .iter()
            .enumerate()
            .map(|(i, (e, p))| OutputRecord {
                index: i as u64,
                u: e.u as u64,
                v: e.v as u64,
                weight: e.weight,
                phase: p.phase as u64,
                kind: p.kind.code(),
                charged_to: p.charged_to as u64,
            })
            .collect();
        pool.retain_outputs(&wire).map_err(BuildError::Worker)?;
        let messages = Some(pool.message_stats());
        Ok((
            EngineReport {
                transport: self.kind,
                messages,
                shards,
            },
            Some(HeldOutputs {
                pool,
                count: wire.len(),
            }),
        ))
    }
}

/// A live [`WorkerPool`] whose workers hold a finished build's output
/// partitions (shipped by [`Engine::finish_retaining`]), plus the total
/// record count across all partitions. Opaque outside the crate; consumed
/// by [`RemotePartitionedBackend`](crate::api::RemotePartitionedBackend).
pub struct HeldOutputs {
    pub(crate) pool: WorkerPool,
    pub(crate) count: usize,
}

impl std::fmt::Debug for HeldOutputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeldOutputs")
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

/// Per-shard init payloads from the partitioned layout: each worker gets
/// its owned vertex range plus the shard's local CSR (which stores owned
/// neighbor lists verbatim, preserving the global adjacency order the
/// rank protocol depends on).
fn shard_inits(sharded: &ShardedCsr, num_vertices: usize) -> Vec<ShardInit> {
    let shards = sharded.shards();
    shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let range = shard.range();
            let mut offsets = Vec::with_capacity(range.len() + 1);
            let mut adjacency = Vec::new();
            offsets.push(0);
            for v in range.clone() {
                adjacency.extend_from_slice(shard.neighbors(v));
                offsets.push(adjacency.len());
            }
            ShardInit {
                shard: i,
                num_shards: shards.len(),
                num_vertices,
                start: range.start,
                end: range.end,
                offsets,
                adjacency,
            }
        })
        .collect()
}

/// The one build path of every engine-backed construction (the paper's
/// centralized, fast-centralized and spanner builds, and the EP01, EN17a
/// and EM19 baselines), after the caller has validated `cfg` and derived
/// its parameters: builds the [`Engine`], runs the construction on it,
/// finishes the engine (shipping the output to a worker pool's retained
/// partitions), assembles the [`BuildOutput`] and
/// verifies the worker-held merge.
///
/// `run` returns the output, its per-phase timings and its trace; the
/// trace is kept only when `cfg.traced`. A worker failure anywhere in the
/// build surfaces as the worker's own typed [`BuildError::Worker`]: the
/// engine must finish before the output is assembled, and the merge is
/// verified last.
///
/// # Errors
///
/// [`BuildError::Worker`] from [`Engine::finish_retaining`] or the merge
/// verification.
pub fn build_on_engine<S: AdjStorage>(
    g: &GraphCore<S>,
    cfg: &BuildConfig,
    algorithm: &'static str,
    certified: Option<(f64, f64)>,
    size_bound: Option<f64>,
    run: impl FnOnce(&Engine<'_, S>) -> (Emulator, Vec<PhaseTiming>, Option<Trace>),
) -> Result<BuildOutput, BuildError> {
    let t0 = Instant::now();
    let engine = Engine::new(g, cfg);
    let (emulator, phases, trace) = run(&engine);
    let (report, held) = engine.finish_retaining(emulator.provenance())?;
    let mut out = BuildOutput {
        emulator,
        certified,
        size_bound,
        trace: trace.filter(|_| cfg.traced),
        congest: None,
        stats: BuildStats {
            threads: cfg.threads,
            total: t0.elapsed(),
            phases,
            shards: report.shards,
            transport: report.transport,
            messages: report.messages,
            ..BuildStats::default()
        },
        algorithm,
    };
    finalize_worker_build(&mut out, held)?;
    Ok(out)
}

/// Finishes a worker build whose output stayed sharded across the pool
/// ([`Engine::finish_retaining`]): routes the worker-held partitions
/// through a [`RemotePartitionedBackend`](crate::api::RemotePartitionedBackend)
/// and verifies the lazy merge — streaming every record back over the
/// live transport and proving the merge byte-identical to the built
/// stream by fingerprint, without building an emulator — then folds the
/// final [`MessageStats`] (retain and fetch traffic included) into
/// `out.stats.messages`. In-process builds (`held` is `None`) have nothing
/// to verify.
///
/// # Errors
///
/// [`BuildError::Worker`] — the worker's own typed error (a dead peer
/// surfaces as `WorkerExited` / `Disconnected`, a bad merge as `Corrupt`
/// or a fingerprint mismatch).
fn finalize_worker_build(
    out: &mut BuildOutput,
    held: Option<HeldOutputs>,
) -> Result<(), BuildError> {
    let Some(held) = held else {
        return Ok(());
    };
    let backend = crate::api::RemotePartitionedBackend::from_held(out, held);
    if let Err(e) = backend.verify() {
        // Surface the transport's own typed error when there is one (a
        // dead worker mid-fetch), not its stringified echo.
        return Err(BuildError::Worker(backend.take_worker_error().unwrap_or(
            WorkerError::Corrupt {
                reason: format!("worker-held partition merge failed: {e}"),
            },
        )));
    }
    if let Some(stats) = backend.final_stats() {
        out.stats.messages = Some(stats);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;
    use usnae_graph::partition::PartitionPolicy;

    fn config(kind: TransportKind, shards: usize) -> BuildConfig {
        BuildConfig {
            transport: kind,
            shards,
            threads: 2,
            ..BuildConfig::default()
        }
    }

    #[test]
    fn inproc_engine_matches_the_direct_primitives() {
        let g = generators::gnp_connected(80, 0.06, 9).unwrap();
        let engine = Engine::inproc(&g, 2);
        let sources = [0, 7, 33];
        assert_eq!(engine.balls(&sources, 3), par::balls(&g, &sources, 3, 2));
        assert_eq!(
            engine.explorations(&sources, 4),
            par::explorations(&g, &sources, 4, 1)
        );
        let w: Vec<VertexId> = (0..80).step_by(3).collect();
        assert_eq!(engine.ruling_set(&w, 2), sai::ruling_set(&g, &w, 2));
        let report = engine.finish().unwrap();
        assert_eq!(report.transport, TransportKind::Inproc);
        assert!(report.messages.is_none());
    }

    #[test]
    fn channel_engine_is_byte_identical_and_measures_messages() {
        let g = generators::gnp_connected(90, 0.05, 21).unwrap();
        let cfg = BuildConfig {
            partition: PartitionPolicy::DegreeBalanced,
            ..config(TransportKind::Channel, 3)
        };
        let engine = Engine::new(&g, &cfg);
        let sources = [1, 40, 77];
        assert_eq!(engine.balls(&sources, 4), par::balls(&g, &sources, 4, 2));
        assert_eq!(
            engine.explorations(&sources, 5),
            par::explorations(&g, &sources, 5, 1)
        );
        let is_center: Vec<bool> = (0..90).map(|v| v % 2 == 1).collect();
        assert_eq!(
            engine.centers_within(&sources, 4, &is_center),
            par::centers_within(&g, &sources, 4, &is_center, 1)
        );
        let w: Vec<VertexId> = (0..90).step_by(2).collect();
        assert_eq!(engine.ruling_set(&w, 2), sai::ruling_set(&g, &w, 2));
        let report = engine.finish().unwrap();
        assert_eq!(report.transport, TransportKind::Channel);
        let stats = report.messages.expect("worker build measures messages");
        assert!(stats.rounds > 0 && stats.messages > 0 && stats.bytes > 0);
        assert_eq!(report.shards.len(), 3);
    }

    #[test]
    fn unsharded_worker_request_stays_inproc() {
        // `validate()` rejects this config, but the engine itself must not
        // spawn a pool without a partitioned layout.
        let g = generators::path(12).unwrap();
        let cfg = config(TransportKind::Channel, 0);
        let engine = Engine::new(&g, &cfg);
        assert_eq!(engine.balls(&[0], 2), par::balls(&g, &[0], 2, 2));
        let report = engine.finish().unwrap();
        assert_eq!(report.transport, TransportKind::Inproc);
        assert!(report.messages.is_none());
    }

    #[test]
    fn missing_worker_binary_surfaces_at_finish() {
        // The only test in this binary touching the worker-bin env var, so
        // no cross-test race.
        let g = generators::path(16).unwrap();
        let cfg = config(TransportKind::Socket, 2);
        let previous = std::env::var_os(usnae_workers::process::WORKER_BIN_ENV);
        std::env::set_var(
            usnae_workers::process::WORKER_BIN_ENV,
            "/nonexistent/usnae-worker",
        );
        let engine = Engine::new(&g, &cfg);
        match previous {
            Some(v) => std::env::set_var(usnae_workers::process::WORKER_BIN_ENV, v),
            None => std::env::remove_var(usnae_workers::process::WORKER_BIN_ENV),
        }
        // The build still completes in-process...
        assert_eq!(engine.balls(&[0, 9], 3), par::balls(&g, &[0, 9], 3, 2));
        // ...but finish refuses to pretend the worker build happened.
        match engine.finish() {
            Err(BuildError::Worker(WorkerError::Io(_))) => {}
            other => panic!("expected a worker spawn error, got {other:?}"),
        }
    }
}
