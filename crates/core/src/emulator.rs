//! The emulator object `H` with per-edge provenance, and its frozen form.
//!
//! Beyond the weighted graph itself, every edge remembers which phase added
//! it, whether it was an interconnection / superclustering / buffer-join
//! edge (the three arrows of the paper's Figures 1, 2 and 4), and which
//! vertex it was *charged* to — the raw material of the Lemma 2.4 size
//! argument, re-checked at runtime by [`charging`](crate::charging).
//!
//! A finished emulator is served as an [`EmuCsr`]: one immutable weighted
//! CSR, the same bytes whether frozen from a live build or mapped from a
//! stored snapshot.

use crate::cache::SnapshotError;
use std::ops::Range;
use usnae_graph::dijkstra::{self, WeightedAdjacency};
use usnae_graph::{ByteMap, Dist, VertexId, WeightedEdge, WeightedGraph};

/// The role an edge played when it entered the emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Added when an *unpopular* center was considered (Fig. 1); charged to
    /// that center.
    Interconnection,
    /// Added when a cluster joined a freshly formed supercluster (Fig. 2);
    /// charged to the joining cluster's center.
    Superclustering,
    /// Added at phase end when a buffered (`N_i`) cluster fell back to the
    /// supercluster that buffered it (Fig. 4); charged to the joiner.
    BufferJoin,
}

impl EdgeKind {
    /// Stable wire code for fingerprints and the snapshot codec (the
    /// discriminant order is a serialization contract, frozen at v1).
    pub fn code(self) -> u8 {
        match self {
            EdgeKind::Interconnection => 0,
            EdgeKind::Superclustering => 1,
            EdgeKind::BufferJoin => 2,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown bytes (a
    /// corrupted snapshot, not a panic).
    pub fn from_code(code: u8) -> Option<EdgeKind> {
        match code {
            0 => Some(EdgeKind::Interconnection),
            1 => Some(EdgeKind::Superclustering),
            2 => Some(EdgeKind::BufferJoin),
            _ => None,
        }
    }
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeKind::Interconnection => write!(f, "interconnection"),
            EdgeKind::Superclustering => write!(f, "superclustering"),
            EdgeKind::BufferJoin => write!(f, "buffer-join"),
        }
    }
}

/// FNV-1a fingerprint of an exact insertion stream — every edge with its
/// weight and full provenance, in insertion order. This is the one
/// fingerprint definition in the workspace:
/// [`BuildOutput::stream_fingerprint`](crate::api::BuildOutput::stream_fingerprint)
/// computes it over a live build and the snapshot codec recomputes it over
/// decoded records, so a warm cache hit can be *proven* byte-identical to
/// the build that produced it.
pub fn stream_fingerprint(records: &[(WeightedEdge, EdgeProvenance)]) -> u64 {
    let mut h = usnae_graph::metrics::Fnv64::new();
    for (e, p) in records {
        h.write_u64(e.u as u64);
        h.write_u64(e.v as u64);
        h.write_u64(e.weight);
        h.write_u64(p.phase as u64);
        h.write_u64(u64::from(p.kind.code()));
        h.write_u64(p.charged_to as u64);
    }
    h.finish()
}

/// Where an emulator edge came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeProvenance {
    /// Phase index `i ∈ [0, ℓ]`.
    pub phase: usize,
    /// Interconnection / superclustering / buffer-join.
    pub kind: EdgeKind,
    /// The vertex this edge is charged to in the size analysis (§2.2.1).
    pub charged_to: VertexId,
}

/// A near-additive emulator under construction or completed.
///
/// # Example
///
/// ```
/// use usnae_core::{EdgeKind, EdgeProvenance, Emulator};
///
/// let mut h = Emulator::new(4);
/// h.add_edge(0, 2, 3, EdgeProvenance {
///     phase: 0,
///     kind: EdgeKind::Interconnection,
///     charged_to: 0,
/// });
/// assert_eq!(h.num_edges(), 1);
/// assert_eq!(h.distance(0, 2), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    graph: WeightedGraph,
    provenance: Vec<(WeightedEdge, EdgeProvenance)>,
}

impl Emulator {
    /// An empty emulator over `n` vertices.
    pub fn new(n: usize) -> Self {
        Emulator {
            graph: WeightedGraph::new(n),
            provenance: Vec::new(),
        }
    }

    /// Replays a recorded insertion stream over `n` vertices — the snapshot
    /// codec's load path. Because [`add_edge`](Self::add_edge) is
    /// deterministic in the stream order, the rebuilt emulator is
    /// byte-identical (graph *and* provenance) to the one that recorded the
    /// stream.
    pub fn from_provenance(
        n: usize,
        records: impl IntoIterator<Item = (WeightedEdge, EdgeProvenance)>,
    ) -> Self {
        let mut h = Emulator::new(n);
        for (e, p) in records {
            h.add_edge(e.u, e.v, e.weight, p);
        }
        h
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of distinct edges `|H|` — the quantity bounded by `n^(1+1/κ)`.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Adds edge `(u, v)` with `weight` and provenance. Duplicate pairs keep
    /// the lighter weight; the provenance record is appended either way so
    /// the charge ledger sees every insertion the algorithm performed.
    ///
    /// Returns `true` when a genuinely new edge was created.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Dist,
        provenance: EdgeProvenance,
    ) -> bool {
        let created = self.graph.add_edge(u, v, weight);
        self.provenance
            .push((WeightedEdge::new(u, v, weight), provenance));
        created
    }

    /// The underlying weighted graph.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// Every insertion with its provenance, in insertion order. May contain
    /// more records than [`num_edges`](Self::num_edges) when the same pair
    /// was inserted in several phases.
    pub fn provenance(&self) -> &[(WeightedEdge, EdgeProvenance)] {
        &self.provenance
    }

    /// Distance in `H` alone (no `G` edges): the emulator must certify its
    /// stretch by itself.
    pub fn distance(&self, u: VertexId, v: VertexId) -> Option<Dist> {
        dijkstra::distance(&self.graph, u, v)
    }

    /// Single-source distances in `H`.
    pub fn distances_from(&self, u: VertexId) -> Vec<Option<Dist>> {
        dijkstra::dijkstra(&self.graph, u)
    }

    /// Edge count per kind, for the anatomy reports (experiments F1/F2).
    pub fn kind_histogram(&self) -> std::collections::HashMap<EdgeKind, usize> {
        let mut hist = std::collections::HashMap::new();
        for (_, p) in &self.provenance {
            *hist.entry(p.kind).or_insert(0) += 1;
        }
        hist
    }

    /// Edge insertions per phase.
    pub fn phase_histogram(&self) -> Vec<usize> {
        let phases = self
            .provenance
            .iter()
            .map(|(_, p)| p.phase)
            .max()
            .map_or(0, |m| m + 1);
        let mut hist = vec![0usize; phases];
        for (_, p) in &self.provenance {
            hist[p.phase] += 1;
        }
        hist
    }
}

/// The frozen emulator: `H`'s weighted adjacency as one immutable CSR,
/// the one structure every [`QueryEngine`](crate::oracle::QueryEngine)
/// serves from.
///
/// The bytes are exactly the snapshot codec's
/// [`SECTION_EMU_CSR`](crate::cache::SECTION_EMU_CSR), all little-endian
/// `u64`: `n`, `m` (distinct undirected edges), `2m`, the `(n+1)`-entry
/// offset array, then `2m` `(neighbor, weight)` pairs, every row ascending
/// by neighbor. [`freeze`](Self::freeze) is the one writer of that layout:
/// the codec stores its output, and this type reads it. A stored snapshot
/// is served from a mapping of its file
/// ([`MappedSnapshot`](crate::cache::MappedSnapshot)); a live build is
/// frozen into owned words ([`from_emulator`](Self::from_emulator)).
/// Distances come from the one kernel,
/// [`usnae_graph::dijkstra::shortest_paths`].
#[derive(Debug)]
pub struct EmuCsr {
    map: ByteMap,
    /// Byte range of the section inside `map`.
    section: Range<usize>,
    num_vertices: usize,
    num_edges: usize,
}

/// Little-endian `u64` at byte `at` of `bytes`.
fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

impl EmuCsr {
    /// Serializes the adjacency implied by an insertion stream over `n`
    /// vertices. The weight of a pair is the minimum over the stream (the
    /// emulator's lighter-parallel-edge-wins rule), so the bytes are a pure
    /// function of the records: the codec byte-compares a stored section
    /// against a recomputation.
    pub fn freeze(n: usize, records: &[(WeightedEdge, EdgeProvenance)]) -> Vec<u8> {
        // Distinct pairs ascending, each at its lightest weight.
        let mut edges: Vec<(usize, usize, Dist)> =
            records.iter().map(|(e, _)| (e.u, e.v, e.weight)).collect();
        edges.sort_unstable();
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        let mut offsets = vec![0u64; n + 1];
        for &(u, v, _) in &edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let adj_len = offsets[n] as usize;
        // Pairs iterate in ascending (u, v) order with u < v, so each row
        // receives first its smaller neighbors (ascending u) and then its
        // larger ones (ascending v) — sorted without an explicit sort.
        let mut adj = vec![(0u64, 0u64); adj_len];
        let mut cursor: Vec<usize> = offsets[..n].iter().map(|&o| o as usize).collect();
        for &(u, v, wt) in &edges {
            adj[cursor[u]] = (v as u64, wt);
            cursor[u] += 1;
            adj[cursor[v]] = (u as u64, wt);
            cursor[v] += 1;
        }
        let mut out = Vec::with_capacity(8 * (3 + offsets.len() + 2 * adj_len));
        for x in [n as u64, edges.len() as u64, adj_len as u64]
            .into_iter()
            .chain(offsets)
            .chain(adj.into_iter().flat_map(|(nb, wt)| [nb, wt]))
        {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Freezes a live emulator into owned words.
    pub fn from_emulator(h: &Emulator) -> EmuCsr {
        let bytes = EmuCsr::freeze(h.num_vertices(), h.provenance());
        let len = bytes.len();
        EmuCsr::parse(ByteMap::from_bytes(&bytes), 0..len).expect("a fresh freeze is well-formed")
    }

    /// Reads the section at byte range `section` of `map` (8-aligned),
    /// validating its structure so no later read can go out of bounds:
    /// declared lengths consistent, offsets monotone and ending at the
    /// adjacency length, every neighbor id in range.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first violated rule.
    pub(crate) fn parse(map: ByteMap, section: Range<usize>) -> Result<EmuCsr, SnapshotError> {
        let corrupt = |reason: String| SnapshotError::Corrupt { reason };
        let bytes = &map.bytes()[section.clone()];
        if bytes.len() < 24 {
            return Err(corrupt(format!(
                "emulator CSR section is {} bytes, shorter than its header",
                bytes.len()
            )));
        }
        let (n, m, adj_len) = (word(bytes, 0), word(bytes, 8), word(bytes, 16));
        if Some(adj_len) != m.checked_mul(2) {
            return Err(corrupt(format!(
                "emulator CSR adjacency length {adj_len} is not 2·{m}"
            )));
        }
        let expected_len = n
            .checked_add(1)
            .and_then(|rows| rows.checked_mul(8))
            .zip(adj_len.checked_mul(16))
            .and_then(|(a, b)| a.checked_add(b))
            .and_then(|x| x.checked_add(24));
        if expected_len != Some(bytes.len() as u64) {
            return Err(corrupt(format!(
                "emulator CSR section is {} bytes, layout requires {}",
                bytes.len(),
                expected_len.map_or("more than u64::MAX".into(), |x| x.to_string())
            )));
        }
        let (n, adj_len) = (n as usize, adj_len as usize);
        let adj_at = 24 + 8 * (n + 1);
        let mut prev = 0u64;
        for i in 0..=n {
            let o = word(bytes, 24 + 8 * i);
            if o < prev || o > adj_len as u64 {
                return Err(corrupt(format!("emulator CSR offset {i} is not monotone")));
            }
            prev = o;
        }
        if prev != adj_len as u64 {
            return Err(corrupt(format!(
                "emulator CSR offsets end at {prev}, adjacency length is {adj_len}"
            )));
        }
        for i in 0..adj_len {
            let nb = word(bytes, adj_at + 16 * i);
            if nb >= n as u64 {
                return Err(corrupt(format!(
                    "emulator CSR neighbor {nb} out of range for n={n}"
                )));
            }
        }
        Ok(EmuCsr {
            map,
            section,
            num_vertices: n,
            num_edges: m as usize,
        })
    }

    /// The section bytes, exactly as [`freeze`](Self::freeze) wrote them.
    pub fn as_bytes(&self) -> &[u8] {
        &self.map.bytes()[self.section.clone()]
    }

    /// Every byte behind the section (for a mapped snapshot, the whole
    /// file).
    pub(crate) fn file_bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// Whether the bytes are an OS mapping of a snapshot file (`false`
    /// for a frozen live build or the paged fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Emulator vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Distinct-edge count.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Offset-array entries `v` and `v + 1`: the span of `v`'s row.
    fn row(&self, bytes: &[u8], v: VertexId) -> Range<usize> {
        let at = 24 + 8 * v;
        word(bytes, at) as usize..word(bytes, at + 8) as usize
    }

    /// Degree of `v` (distinct neighbors, as the heap [`Emulator`] counts).
    pub fn degree(&self, v: VertexId) -> usize {
        self.row(self.as_bytes(), v).len()
    }

    /// Single-source distances in `H`.
    pub fn distances_from(&self, source: VertexId) -> Vec<Option<Dist>> {
        dijkstra::dijkstra(self, source)
    }
}

impl WeightedAdjacency for EmuCsr {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Dist)) {
        let bytes = self.as_bytes();
        let row = self.row(bytes, v);
        let adj_at = 24 + 8 * (self.num_vertices + 1);
        for pair in bytes[adj_at + 16 * row.start..adj_at + 16 * row.end].chunks_exact(16) {
            f(word(pair, 0) as usize, word(pair, 8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(phase: usize, kind: EdgeKind, charged_to: VertexId) -> EdgeProvenance {
        EdgeProvenance {
            phase,
            kind,
            charged_to,
        }
    }

    #[test]
    fn add_and_count() {
        let mut h = Emulator::new(5);
        assert!(h.add_edge(0, 1, 2, prov(0, EdgeKind::Interconnection, 0)));
        assert!(h.add_edge(1, 2, 4, prov(1, EdgeKind::Superclustering, 2)));
        assert!(!h.add_edge(0, 1, 9, prov(1, EdgeKind::BufferJoin, 1))); // duplicate pair
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.provenance().len(), 3);
    }

    #[test]
    fn distance_uses_min_weight_of_duplicates() {
        let mut h = Emulator::new(3);
        h.add_edge(0, 1, 9, prov(0, EdgeKind::Interconnection, 0));
        h.add_edge(0, 1, 4, prov(1, EdgeKind::Interconnection, 0));
        assert_eq!(h.distance(0, 1), Some(4));
    }

    #[test]
    fn histograms() {
        let mut h = Emulator::new(4);
        h.add_edge(0, 1, 1, prov(0, EdgeKind::Interconnection, 0));
        h.add_edge(1, 2, 1, prov(0, EdgeKind::Superclustering, 2));
        h.add_edge(2, 3, 1, prov(1, EdgeKind::Superclustering, 3));
        let kinds = h.kind_histogram();
        assert_eq!(kinds[&EdgeKind::Interconnection], 1);
        assert_eq!(kinds[&EdgeKind::Superclustering], 2);
        assert_eq!(h.phase_histogram(), vec![2, 1]);
    }

    #[test]
    fn unreachable_distance_is_none() {
        let h = Emulator::new(3);
        assert_eq!(h.distance(0, 2), None);
    }

    #[test]
    fn kind_display() {
        assert_eq!(EdgeKind::Interconnection.to_string(), "interconnection");
        assert_eq!(EdgeKind::Superclustering.to_string(), "superclustering");
        assert_eq!(EdgeKind::BufferJoin.to_string(), "buffer-join");
    }
}
