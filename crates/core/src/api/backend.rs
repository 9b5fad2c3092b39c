//! The multi-backend output seam: where a built structure *lives*.
//!
//! `BuildOutput.emulator` keeps its in-memory type, but the
//! [`OutputBackend`] trait lets an output live somewhere other than this
//! process's heap. Three backends implement it:
//!
//! * [`HeapBackend`]: a live emulator in this process;
//! * [`MappedBackend`]: a codec-v4 snapshot file (see [`crate::cache`]),
//!   served through an mmap of its emulator CSR section;
//! * [`RemotePartitionedBackend`]: the insertion stream held as per-shard
//!   partitions by the workers of a socket or channel build.
//!
//! The contract mirrors the cache's: a backend's `stream_fingerprint`
//! identifies the exact insertion stream, so two backends holding "the
//! same" output can be compared without materializing either.

use crate::cache::{MappedSnapshot, Snapshot, SnapshotError};
use crate::emulator::{EdgeKind, EdgeProvenance, EmuCsr, Emulator};
use crate::engine::HeldOutputs;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use usnae_graph::WeightedEdge;
use usnae_workers::{MessageStats, OutputRecord, WorkerError, WorkerPool};

/// A place a built emulator/spanner can live.
///
/// Cheap metadata (`num_vertices`, `num_edges`, `stream_fingerprint`) must
/// be available without materializing; `materialize` produces the live
/// in-memory [`Emulator`] on demand.
pub trait OutputBackend {
    /// Short backend tag for reports (`"heap"`, `"snapshot"`).
    fn kind(&self) -> &'static str;

    /// Registry name of the construction that produced the output.
    fn algorithm(&self) -> &str;

    /// Vertex count, without materializing.
    fn num_vertices(&self) -> usize;

    /// Distinct-edge count, without materializing.
    fn num_edges(&self) -> usize;

    /// Fingerprint of the exact insertion stream (the identity of the
    /// output; see [`crate::emulator::stream_fingerprint`]).
    fn stream_fingerprint(&self) -> u64;

    /// Certified stretch pair `(α, β)` of the stored output, when the
    /// producing construction certified one — this is what lets a
    /// [`QueryEngine`](crate::oracle::QueryEngine) opened over a backend
    /// serve *certified* answers without re-running the construction.
    fn certified(&self) -> Option<(f64, f64)> {
        None
    }

    /// Produces the live in-memory emulator.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a persistent backend cannot be read back
    /// (the heap backend is infallible).
    fn materialize(&self) -> Result<Emulator, SnapshotError>;

    /// Produces the frozen emulator a
    /// [`QueryEngine`](crate::oracle::QueryEngine) answers queries from.
    /// The default materializes and freezes it — correct for every backend.
    /// [`MappedBackend`] overrides this to serve the snapshot file's own
    /// CSR section, so opening an engine never copies the emulator into
    /// process memory; the bytes are identical either way.
    ///
    /// # Errors
    ///
    /// Same contract as [`OutputBackend::materialize`].
    fn serve(&self) -> Result<EmuCsr, SnapshotError> {
        Ok(EmuCsr::from_emulator(&self.materialize()?))
    }
}

/// The default backend: the output already lives on this process's heap.
#[derive(Debug, Clone)]
pub struct HeapBackend {
    emulator: Emulator,
    algorithm: String,
    fingerprint: u64,
    certified: Option<(f64, f64)>,
}

impl HeapBackend {
    /// Wraps a live emulator (fingerprint computed once, up front).
    pub fn new(emulator: Emulator, algorithm: impl Into<String>) -> Self {
        let fingerprint = crate::emulator::stream_fingerprint(emulator.provenance());
        HeapBackend {
            emulator,
            algorithm: algorithm.into(),
            fingerprint,
            certified: None,
        }
    }

    /// Wraps a build result, carrying its certified stretch pair so an
    /// engine opened over this backend serves certified answers.
    pub fn from_output(out: &crate::api::BuildOutput) -> Self {
        HeapBackend::new(out.emulator.clone(), out.algorithm).with_certified(out.certified)
    }

    /// Attaches (or clears) the certified `(α, β)` pair.
    pub fn with_certified(mut self, certified: Option<(f64, f64)>) -> Self {
        self.certified = certified;
        self
    }

    /// The wrapped emulator, by reference (no materialization cost).
    pub fn emulator(&self) -> &Emulator {
        &self.emulator
    }
}

impl OutputBackend for HeapBackend {
    fn kind(&self) -> &'static str {
        "heap"
    }

    fn algorithm(&self) -> &str {
        &self.algorithm
    }

    fn num_vertices(&self) -> usize {
        self.emulator.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.emulator.num_edges()
    }

    fn stream_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn certified(&self) -> Option<(f64, f64)> {
        self.certified
    }

    fn materialize(&self) -> Result<Emulator, SnapshotError> {
        Ok(self.emulator.clone())
    }

    fn serve(&self) -> Result<EmuCsr, SnapshotError> {
        Ok(EmuCsr::from_emulator(&self.emulator))
    }
}

/// The snapshot backend: a [`MappedSnapshot`] handle over a codec-v4
/// snapshot file. Open verifies the whole-file checksum and takes the
/// metadata from the section directory (the record stream is never
/// decoded); `serve()` hands a [`QueryEngine`](crate::oracle::QueryEngine)
/// the mapped emulator CSR section directly, so query serving holds no
/// heap copy of the structure. `materialize()` re-reads the file, fully
/// decodes and verifies it and checks the stream fingerprint against the
/// one seen at open, so a handle held across processes never trusts
/// stale bytes.
#[derive(Debug)]
pub struct MappedBackend {
    snap: MappedSnapshot,
}

impl MappedBackend {
    /// Maps and structurally validates a codec-v4 snapshot file.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from [`MappedSnapshot::open`] — including
    /// [`SnapshotError::UnsupportedVersion`] for files of any other codec
    /// version.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        Ok(MappedBackend {
            snap: MappedSnapshot::open(path.into())?,
        })
    }

    /// The underlying mapped snapshot handle.
    pub fn snapshot(&self) -> &MappedSnapshot {
        &self.snap
    }

    /// The snapshot file this backend serves from.
    pub fn path(&self) -> &Path {
        self.snap.path()
    }
}

impl OutputBackend for MappedBackend {
    fn kind(&self) -> &'static str {
        "mapped"
    }

    fn algorithm(&self) -> &str {
        &self.snap.key().algorithm
    }

    fn num_vertices(&self) -> usize {
        self.snap.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.snap.num_edges()
    }

    fn stream_fingerprint(&self) -> u64 {
        self.snap.stream_fingerprint()
    }

    fn certified(&self) -> Option<(f64, f64)> {
        self.snap.certified()
    }

    fn materialize(&self) -> Result<Emulator, SnapshotError> {
        let full = Snapshot::decode(&std::fs::read(self.snap.path())?)?;
        if full.stream_fingerprint != self.snap.stream_fingerprint() {
            return Err(SnapshotError::FingerprintMismatch {
                stored: self.snap.stream_fingerprint(),
                recomputed: full.stream_fingerprint,
            });
        }
        Ok(full.rebuild_emulator())
    }

    fn serve(&self) -> Result<EmuCsr, SnapshotError> {
        self.snap.reopen_csr()
    }
}

/// Records fetched per worker per exchange when a
/// [`RemotePartitionedBackend`] streams its partitions back.
pub const REMOTE_FETCH_CHUNK: usize = 4096;

/// A backend whose output partitions live in the *workers* (shipped by
/// `Engine::finish_retaining` at round end): it holds only metadata plus
/// the live [`WorkerPool`]. [`verify`](Self::verify) streams every
/// partition back lazily in [`REMOTE_FETCH_CHUNK`]-sized slices, merges by
/// original stream index, re-verifies the merge by stream fingerprint and
/// shuts the pool down, keeping the merged records so a later
/// `materialize()` needs no workers.
pub struct RemotePartitionedBackend {
    algorithm: String,
    num_vertices: usize,
    num_edges: usize,
    fingerprint: u64,
    certified: Option<(f64, f64)>,
    count: usize,
    pool: RefCell<Option<WorkerPool>>,
    merged: RefCell<Option<Vec<(WeightedEdge, EdgeProvenance)>>>,
    final_stats: RefCell<Option<MessageStats>>,
    worker_error: RefCell<Option<WorkerError>>,
}

impl std::fmt::Debug for RemotePartitionedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemotePartitionedBackend")
            .field("algorithm", &self.algorithm)
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges)
            .field("fingerprint", &self.fingerprint)
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

impl RemotePartitionedBackend {
    /// Adopts the worker-held partitions of `out`'s build: metadata from
    /// the finished output, records from the pool inside `held`.
    pub fn from_held(out: &crate::api::BuildOutput, held: HeldOutputs) -> Self {
        RemotePartitionedBackend {
            algorithm: out.algorithm.to_string(),
            num_vertices: out.emulator.num_vertices(),
            num_edges: out.num_edges(),
            fingerprint: out.stream_fingerprint(),
            certified: out.certified,
            count: held.count,
            pool: RefCell::new(Some(held.pool)),
            merged: RefCell::new(None),
            final_stats: RefCell::new(None),
            worker_error: RefCell::new(None),
        }
    }

    /// Total records across all worker-held partitions.
    pub fn num_records(&self) -> usize {
        self.count
    }

    /// The pool's final [`MessageStats`] — retain + fetch traffic and all
    /// build rounds — available once `materialize()` has drained the
    /// workers and shut the pool down.
    pub fn final_stats(&self) -> Option<MessageStats> {
        self.final_stats.borrow().clone()
    }

    /// Takes the typed [`WorkerError`] behind the last failed
    /// `materialize()`, when the failure was the transport's (a dead
    /// worker mid-fetch) rather than a bad merge.
    pub fn take_worker_error(&self) -> Option<WorkerError> {
        self.worker_error.borrow_mut().take()
    }

    /// Fetches the worker-held partitions (once), merges them and checks
    /// that the merge reproduces the built stream's fingerprint, without
    /// building an emulator.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the fetch or the merge fails (the
    /// transport's own error is kept for
    /// [`take_worker_error`](Self::take_worker_error)), or
    /// [`SnapshotError::FingerprintMismatch`] for a merge of the wrong
    /// stream.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        if self.merged.borrow().is_none() {
            self.fetch_and_merge()?;
        }
        let merged = self.merged.borrow();
        let records = merged
            .as_ref()
            .expect("fetch_and_merge fills the merge on success");
        let recomputed = crate::emulator::stream_fingerprint(records);
        if recomputed != self.fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                stored: self.fingerprint,
                recomputed,
            });
        }
        Ok(())
    }

    /// Streams the partitions back, merges them, and shuts the pool down.
    fn fetch_and_merge(&self) -> Result<(), SnapshotError> {
        let Some(mut pool) = self.pool.borrow_mut().take() else {
            return Err(SnapshotError::Corrupt {
                reason: "remote partitions already consumed by a failed fetch".into(),
            });
        };
        let parts = match pool.fetch_retained(REMOTE_FETCH_CHUNK) {
            Ok(parts) => parts,
            Err(e) => {
                // The pool drops here: kill-on-drop teardown, no hang.
                let reason = format!("fetching worker-held partitions failed: {e}");
                *self.worker_error.borrow_mut() = Some(e);
                return Err(SnapshotError::Corrupt { reason });
            }
        };
        let stats = match pool.shutdown() {
            Ok(stats) => stats,
            Err(e) => {
                let reason = format!("worker shutdown after partition fetch failed: {e}");
                *self.worker_error.borrow_mut() = Some(e);
                return Err(SnapshotError::Corrupt { reason });
            }
        };
        let mut records: Vec<OutputRecord> = parts.into_iter().flatten().collect();
        records.sort_unstable_by_key(|r| r.index);
        if records.len() != self.count {
            return Err(SnapshotError::Corrupt {
                reason: format!(
                    "workers held {} records, the build shipped {}",
                    records.len(),
                    self.count
                ),
            });
        }
        let mut merged = Vec::with_capacity(records.len());
        for (i, rec) in records.into_iter().enumerate() {
            if rec.index != i as u64 {
                return Err(SnapshotError::Corrupt {
                    reason: format!("merged stream skips from index {i} to {}", rec.index),
                });
            }
            merged.push(decode_record(&rec, self.num_vertices)?);
        }
        *self.merged.borrow_mut() = Some(merged);
        *self.final_stats.borrow_mut() = Some(stats);
        Ok(())
    }
}

/// One wire record back to `(edge, provenance)`, with the same structural
/// checks the snapshot codec applies (endpoint range, known edge-kind).
fn decode_record(
    rec: &OutputRecord,
    num_vertices: usize,
) -> Result<(WeightedEdge, EdgeProvenance), SnapshotError> {
    let vertex = |x: u64| -> Result<usize, SnapshotError> {
        usize::try_from(x)
            .ok()
            .filter(|&v| v < num_vertices)
            .ok_or_else(|| SnapshotError::Corrupt {
                reason: format!("record endpoint {x} out of range (n = {num_vertices})"),
            })
    };
    let kind = EdgeKind::from_code(rec.kind).ok_or_else(|| SnapshotError::Corrupt {
        reason: format!("unknown edge-kind code {}", rec.kind),
    })?;
    Ok((
        WeightedEdge {
            u: vertex(rec.u)?,
            v: vertex(rec.v)?,
            weight: rec.weight,
        },
        EdgeProvenance {
            phase: usize::try_from(rec.phase).map_err(|_| SnapshotError::Corrupt {
                reason: format!("record phase {} overflows", rec.phase),
            })?,
            kind,
            charged_to: vertex(rec.charged_to)?,
        },
    ))
}

impl OutputBackend for RemotePartitionedBackend {
    fn kind(&self) -> &'static str {
        "remote-partitioned"
    }

    fn algorithm(&self) -> &str {
        &self.algorithm
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn stream_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn certified(&self) -> Option<(f64, f64)> {
        self.certified
    }

    fn materialize(&self) -> Result<Emulator, SnapshotError> {
        self.verify()?;
        let merged = self.merged.borrow();
        let records = merged.as_ref().expect("verify fills the merge on success");
        Ok(Emulator::from_provenance(
            self.num_vertices,
            records.iter().copied(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, BuildConfig};
    use crate::cache::CacheKey;
    use crate::oracle::QueryEngine;
    use usnae_graph::generators;

    #[test]
    fn heap_and_snapshot_backends_agree() {
        let g = generators::gnp_connected(50, 0.12, 4).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("usnae-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.usnae");
        let key = CacheKey::new(&g, c.name(), &cfg);
        std::fs::write(&path, Snapshot::from_output(key, &out).encode()).unwrap();

        // The on-disk snapshot is read through the mapped backend.
        let heap = HeapBackend::from_output(&out);
        let disk = MappedBackend::open(&path).unwrap();
        for b in [&heap as &dyn OutputBackend, &disk] {
            assert_eq!(b.algorithm(), "centralized");
            assert_eq!(b.num_vertices(), out.emulator.num_vertices());
            assert_eq!(b.num_edges(), out.num_edges());
            assert_eq!(b.stream_fingerprint(), out.stream_fingerprint());
            assert_eq!(b.certified(), out.certified, "{}", b.kind());
            let live = b.materialize().unwrap();
            assert_eq!(live.provenance(), out.emulator.provenance(), "{}", b.kind());
        }
        assert!(out.certified.is_some(), "centralized certifies a pair");
        assert_eq!(heap.kind(), "heap");
        assert_eq!(disk.kind(), "mapped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_backend_agrees_with_heap_and_serves_without_materializing() {
        let g = generators::gnp_connected(60, 0.1, 11).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("usnae-backend-map-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.usnae");
        let key = CacheKey::new(&g, c.name(), &cfg);
        std::fs::write(&path, Snapshot::from_output(key, &out).encode()).unwrap();

        let heap = HeapBackend::from_output(&out);
        let mapped = MappedBackend::open(&path).unwrap();
        assert_eq!(mapped.kind(), "mapped");
        assert_eq!(mapped.algorithm(), heap.algorithm());
        assert_eq!(mapped.num_vertices(), heap.num_vertices());
        assert_eq!(mapped.num_edges(), heap.num_edges());
        assert_eq!(mapped.stream_fingerprint(), heap.stream_fingerprint());
        assert_eq!(mapped.certified(), heap.certified());
        let live = mapped.materialize().unwrap();
        assert_eq!(live.provenance(), out.emulator.provenance());

        // Serving: the mapped engine answers from the file's own CSR
        // section, byte-identical to the heap engine's frozen store, and
        // its answers equal the heap-backed engine's.
        let heap_engine = QueryEngine::open(&heap).unwrap();
        let map_engine = QueryEngine::open(&mapped).unwrap();
        assert!(!heap_engine.store().is_mapped());
        assert!(map_engine.store().is_mapped(), "no heap copy when mapped");
        assert_eq!(
            map_engine.store().as_bytes(),
            heap_engine.store().as_bytes()
        );
        assert_eq!(map_engine.num_vertices(), heap_engine.num_vertices());
        assert_eq!(map_engine.num_edges(), heap_engine.num_edges());
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 30, 3) {
            assert_eq!(map_engine.distance(u, v), heap_engine.distance(u, v));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_backend_rejects_rot_on_materialize() {
        use std::io::Write;
        let g = generators::grid2d(5, 5).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("usnae-backend-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.usnae");
        let key = CacheKey::new(&g, c.name(), &cfg);
        std::fs::write(&path, Snapshot::from_output(key, &out).encode()).unwrap();

        let backend = MappedBackend::open(&path).unwrap();
        // Rot the file in place after open (same length, so the mapping
        // stays valid): the handle's metadata is stale now.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        assert!(backend.materialize().is_err(), "rot must not materialize");
        assert!(QueryEngine::open(&backend).is_err(), "rot must not serve");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
