//! Out-of-core conformance: registry-wide mapped-vs-heap identity.
//!
//! The storage seam's contract is that *where the graph lives is
//! unobservable*: for every algorithm in the registry, a build over a
//! file-backed [`MappedGraph`] must be indistinguishable from the same
//! build over the heap CSR — same insertion stream, same provenance,
//! same certification, and byte-identical snapshot sections — and a
//! query engine serving the stored snapshot zero-copy
//! ([`MappedBackend`] + [`QueryEngine::open`]) must answer every query
//! identically to a live heap engine, from the snapshot file's own mapped
//! pages. Both engines serve one structure, the frozen emulator CSR: the
//! heap engine's freeze must be byte-identical to the stored EMU_CSR
//! section.
//!
//! Byte-identity is asserted per snapshot *section*: the KEY, META,
//! RECORDS, and EMU_CSR sections are pure functions of `(graph, config,
//! algorithm)` and must match exactly; only STATS (wall-clock timings)
//! may differ between the two builds.

mod common;

use common::{fixture_graphs, golden_config, query_pairs};
use usnae::api::{MappedBackend, QueryEngine};
use usnae::core::cache::{CacheKey, Snapshot, MAGIC, SECTION_EMU_CSR, SECTION_STATS, VERSION};
use usnae::graph::MappedGraph;
use usnae::registry;

/// A scratch directory under the system temp dir, wiped on create.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usnae-ooc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Parses a v4 snapshot's section directory: `(id, byte range)` per
/// section, straight from the wire layout (`MAGIC | version | count |
/// (id, offset, len)*`).
fn v4_sections(bytes: &[u8]) -> Vec<(u64, std::ops::Range<usize>)> {
    assert_eq!(&bytes[..8], MAGIC.as_slice(), "snapshot magic");
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(version, VERSION, "conformance suite expects the v4 layout");
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = 16 + i * 24;
            let word = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
            let (id, off, len) = (word(at), word(at + 8) as usize, word(at + 16) as usize);
            (id, off..off + len)
        })
        .collect()
}

/// The tentpole sweep: every registry algorithm, on both fixture graphs,
/// built from heap storage and from a mapped CSR file. The outputs must
/// be identical in every deterministic respect, down to the bytes of the
/// non-timing snapshot sections.
#[test]
fn every_registry_algorithm_builds_byte_identically_from_mapped_storage() {
    let dir = scratch("build");
    let cfg = golden_config();
    for (tag, g) in fixture_graphs() {
        let csr = dir.join(format!("{tag}.csr"));
        g.write_csr_file(&csr).expect("write csr file");
        let mg = MappedGraph::open(&csr).expect("open mapped csr");
        assert_eq!(mg.num_vertices(), g.num_vertices(), "{tag}: vertex count");
        assert_eq!(mg.num_edges(), g.num_edges(), "{tag}: edge count");
        for c in registry::all() {
            let heap = c
                .build(&g, &cfg)
                .unwrap_or_else(|e| panic!("{} on {tag} (heap): {e}", c.name()));
            let mapped = c
                .build_mapped(&mg, &cfg)
                .unwrap_or_else(|e| panic!("{} on {tag} (mapped): {e}", c.name()));

            assert_eq!(
                heap.stream_fingerprint(),
                mapped.stream_fingerprint(),
                "{} on {tag}: insertion streams diverged across storage",
                c.name()
            );
            assert_eq!(
                heap.emulator.provenance(),
                mapped.emulator.provenance(),
                "{} on {tag}: provenance records diverged",
                c.name()
            );
            assert_eq!(heap.certified, mapped.certified, "{}: certified", c.name());
            assert_eq!(
                heap.emulator.num_edges(),
                mapped.emulator.num_edges(),
                "{}: emulator size",
                c.name()
            );

            // Snapshot byte-identity, section by section. The cache keys
            // must agree too — `fingerprint` is storage-generic.
            let heap_key = CacheKey::new(&g, c.name(), &cfg);
            let mapped_key = CacheKey::new(&mg, c.name(), &cfg);
            assert_eq!(heap_key, mapped_key, "{} on {tag}: cache keys", c.name());
            let a = Snapshot::from_output(heap_key, &heap).encode();
            let b = Snapshot::from_output(mapped_key, &mapped).encode();
            let (sa, sb) = (v4_sections(&a), v4_sections(&b));
            assert_eq!(
                sa.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                sb.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                "{} on {tag}: section directories disagree",
                c.name()
            );
            for ((id, ra), (_, rb)) in sa.iter().zip(&sb) {
                if *id == SECTION_STATS {
                    continue; // wall-clock timings — legitimately differ
                }
                assert_eq!(
                    &a[ra.clone()],
                    &b[rb.clone()],
                    "{} on {tag}: snapshot section {id} is not byte-identical \
                     between the heap and mapped builds",
                    c.name()
                );
            }
        }
    }
}

/// Serving conformance: a zero-copy engine over the stored snapshot
/// answers every fixture query identically — value, α, and β — to a live
/// heap engine over the same build, from the OS-mapped file; the heap
/// engine's frozen store is byte-identical to the stored EMU_CSR section.
#[test]
fn mapped_serving_answers_match_heap_serving_registry_wide() {
    let dir = scratch("serve");
    let cfg = golden_config();
    for (tag, g) in fixture_graphs() {
        let pairs = query_pairs(&g);
        for c in registry::all() {
            let out = c
                .build(&g, &cfg)
                .unwrap_or_else(|e| panic!("{} on {tag}: {e}", c.name()));
            let key = CacheKey::new(&g, c.name(), &cfg);
            let snap_path = dir.join(format!("{tag}.{}.usnae-snap", c.name()));
            let bytes = Snapshot::from_output(key, &out).encode();
            std::fs::write(&snap_path, &bytes).expect("write snapshot");

            let heap_engine = QueryEngine::from_output(&out);
            let (_, emu) = v4_sections(&bytes)
                .into_iter()
                .find(|(id, _)| *id == SECTION_EMU_CSR)
                .expect("v4 snapshots carry an EMU_CSR section");
            assert!(
                heap_engine.store().as_bytes() == &bytes[emu],
                "{} on {tag}: the heap freeze differs from the stored EMU_CSR section",
                c.name()
            );
            let backend = MappedBackend::open(&snap_path)
                .unwrap_or_else(|e| panic!("{} on {tag}: open mapped: {e}", c.name()));
            let mapped_engine = QueryEngine::open(&backend)
                .unwrap_or_else(|e| panic!("{} on {tag}: serve mapped: {e}", c.name()));
            assert!(
                mapped_engine.store().is_mapped(),
                "{} on {tag}: mapped serving is not served from an OS mapping",
                c.name()
            );
            assert_eq!(
                mapped_engine.num_vertices(),
                heap_engine.num_vertices(),
                "{} on {tag}: vertex counts",
                c.name()
            );
            assert_eq!(
                mapped_engine.num_edges(),
                heap_engine.num_edges(),
                "{} on {tag}: emulator edge counts",
                c.name()
            );
            for &(u, v) in &pairs {
                let a = heap_engine.distance(u, v);
                let b = mapped_engine.distance(u, v);
                assert_eq!(
                    (a.value, a.alpha, a.beta),
                    (b.value, b.alpha, b.beta),
                    "{} on {tag}: query ({u}, {v}) diverged between heap and \
                     mapped serving",
                    c.name()
                );
            }
        }
    }
}
