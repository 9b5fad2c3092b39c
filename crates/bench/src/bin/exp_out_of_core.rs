//! E10 (out-of-core): build + serve a multi-million-vertex graph with
//! peak RSS bounded below the graph's heap materialization.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p usnae-bench --bin exp_out_of_core \
//!     [--n 2000000] [--strides 16] [--queries 24] [--threads 4] \
//!     [--algo centralized] [--kappa 8] [--heap-baseline] [--assert] \
//!     [--json PATH]
//! ```
//!
//! The pipeline never holds the input graph on the heap: a circulant
//! edge list is synthesized straight to a text file, the streaming
//! loader two-passes it into a CSR file, `build_mapped` runs the
//! construction over the file-backed graph, and the v4 snapshot is then
//! *served* — `MappedBackend` + `QueryEngine::open` — in a child
//! process whose whole-process peak RSS is the serving cost. With
//! `--heap-baseline` a second child replays the classic heap pipeline
//! (`read_edge_list` → `build`) for an RSS and parity reference:
//! identical stream fingerprints and identical certified answers.
//!
//! `--assert` turns the memory claims into exit-code failures (CI's
//! `out-of-core` job): the serving peak must stay under the graph's
//! heap CSR bytes, and — when the baseline leg runs — the mapped build
//! must peak within 10% of the heap build (out-of-core input adds no
//! memory overhead; the resident file pages it does count are
//! kernel-evictable, which `VmHWM` cannot show). The serving bound only
//! separates from the ~20 MB process floor at scale — assert at
//! `n ≥ ~800k` with `--strides 16`, where the snapshot (sized by the
//! ultra-sparse emulator, ~`n` edges regardless of `m`) is several
//! times smaller than the degree-32 input graph.
//!
//! Stage peaks come from `usnae_bench::rss` (`VmHWM` +
//! `/proc/self/clear_refs` resets); on platforms without procfs the
//! table still prints but the assertions are skipped.
//!
//! `--json PATH` writes the per-stage peak-RSS legs plus the verdicts as
//! a JSON document — CI's `out-of-core` job uploads it into the
//! `BENCH_<sha>.json` artifact series next to the timing trends.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;
use usnae_bench::timing::json_string;
use usnae_bench::{arg_usize, emit, has_flag, rss};
use usnae_core::api::{registry, BuildConfig, MappedBackend, QueryEngine, TransportKind};
use usnae_core::cache::{CacheKey, Snapshot};
use usnae_eval::table::Table;
use usnae_graph::io::{read_edge_list, stream_edge_list_to_csr_file, StreamOptions};
use usnae_graph::metrics::Fnv64;
use usnae_graph::{MappedGraph, VertexId};

/// Strides of the synthetic circulant graph: vertex `i` links to
/// `i + s (mod n)` for each stride, so `m = strides.len() × n` and the
/// graph is connected (stride 1) with a heap footprint that scales with
/// the stride count while construction state scales only with `n`.
const STRIDES: [usize; 16] = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];

fn arg_string(key: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == key)
        .map(|w| w[1].clone())
        .unwrap_or_else(|| default.to_string())
}

/// Default `kappa = 8` puts the construction in its ultra-sparse regime
/// on the circulant inputs: the size bound `n^(1+1/kappa)` drops below
/// `m`, so the emulator collapses to ~`n` edges and the snapshot stays
/// far smaller than the input graph — the regime the paper (and this
/// experiment's memory claims) are about.
fn build_config(threads: usize) -> BuildConfig {
    BuildConfig {
        threads,
        kappa: arg_usize("--kappa", 8) as u32,
        transport: TransportKind::Inproc,
        ..BuildConfig::default()
    }
}

/// Deterministic query pairs (splitmix-style stream; no RNG dependency).
fn query_pairs(n: usize, k: usize) -> Vec<(VertexId, VertexId)> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    (0..k)
        .map(|_| {
            let u = next() % n;
            let v = next() % n;
            (u, v)
        })
        .collect()
}

/// Folds every certified answer into one digest, so two legs answering
/// identically agree on a single number.
fn answers_fingerprint(engine: &QueryEngine, pairs: &[(VertexId, VertexId)]) -> u64 {
    let mut h = Fnv64::new();
    for &(u, v) in pairs {
        let a = engine.distance(u, v);
        h.write_u64(u as u64);
        h.write_u64(v as u64);
        h.write_u64(a.value.unwrap_or(u64::MAX));
        h.write_u64(a.alpha.to_bits());
        h.write_u64(a.beta.to_bits());
    }
    h.finish()
}

/// Machine-readable result line a child leg prints for the parent.
fn emit_leg(tag: &str, peak_mb: Option<f64>, stream_fp: u64, answers_fp: u64, edges: usize) {
    println!(
        "LEG {{\"tag\":\"{tag}\",\"peak_rss_mb\":{},\"stream_fp\":{stream_fp},\
         \"answers_fp\":{answers_fp},\"emulator_edges\":{edges}}}",
        peak_mb.map_or("null".into(), |mb| format!("{mb:.3}"))
    );
}

/// One parsed child result. The optional fields only appear on the
/// build leg's line.
struct LegResult {
    peak_rss_mb: Option<f64>,
    stream_fp: u64,
    answers_fp: u64,
    emulator_edges: usize,
    build_s: Option<f64>,
    encode_s: Option<f64>,
    encode_peak_rss_mb: Option<f64>,
    snapshot_mb: Option<f64>,
}

/// Runs this binary again with `extra` args and parses its `LEG` line.
fn run_child(extra: &[String]) -> LegResult {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args(extra)
        .output()
        .expect("spawn child leg");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    assert!(
        out.status.success(),
        "child leg {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("LEG "))
        .expect("child printed a LEG line");
    // Raw text of one field (fingerprints are full 64-bit values, so
    // they must be parsed as integers, never through f64).
    let raw = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    };
    LegResult {
        peak_rss_mb: raw("peak_rss_mb").and_then(|s| s.parse().ok()),
        stream_fp: raw("stream_fp")
            .and_then(|s| s.parse().ok())
            .expect("stream_fp"),
        answers_fp: raw("answers_fp")
            .and_then(|s| s.parse().ok())
            .expect("answers_fp"),
        emulator_edges: raw("emulator_edges")
            .and_then(|s| s.parse().ok())
            .expect("emulator_edges"),
        build_s: raw("build_s").and_then(|s| s.parse().ok()),
        encode_s: raw("encode_s").and_then(|s| s.parse().ok()),
        encode_peak_rss_mb: raw("encode_peak_rss_mb").and_then(|s| s.parse().ok()),
        snapshot_mb: raw("snapshot_mb").and_then(|s| s.parse().ok()),
    }
}

/// Child leg: serve the stored snapshot zero-copy and answer the query
/// batch. The process's whole-lifetime peak RSS *is* the serving cost —
/// no graph, no decode, no heap emulator.
fn serve_leg(snapshot: &Path, n: usize, queries: usize) {
    let backend = MappedBackend::open(snapshot).expect("open mapped snapshot");
    // Bounded-memory serving: every cached SSSP tree is `O(n)` words, so
    // an unbounded many-source workload would re-grow a graph-sized heap.
    // Answers are capacity-independent (the cache is a pure memo), so the
    // parity fingerprints still match the default-capacity heap leg.
    let engine = QueryEngine::open(&backend)
        .expect("serve snapshot")
        .with_cache_capacity(2);
    assert!(
        engine.store().is_mapped(),
        "mapped serving must answer from the OS-mapped snapshot"
    );
    let fp = answers_fingerprint(&engine, &query_pairs(n, queries));
    emit_leg(
        "mapped-serve",
        rss::peak_rss_mb(),
        backend.snapshot().stream_fingerprint(),
        fp,
        engine.num_edges(),
    );
}

/// Child leg: open the CSR file, run the construction over the mapped
/// graph, encode and store the v4 snapshot. Runs in its own process so
/// the build's peak RSS is not inflated by the parent's allocator
/// residue from earlier stages; the snapshot encode is timed and peaked
/// separately (after a high-water reset) so codec buffers don't
/// masquerade as construction memory.
fn build_leg(csr: &Path, snap: &Path, algo: &str, threads: usize) {
    let t0 = Instant::now();
    let g = MappedGraph::open(csr).expect("open csr");
    let c = registry::find(algo).expect("algorithm registered");
    let cfg = build_config(threads);
    let out = c.build_mapped(&g, &cfg).expect("mapped build");
    let build_s = t0.elapsed().as_secs_f64();
    let build_peak = rss::peak_rss_mb();
    let stream_fp = out.stream_fingerprint();
    let edges_built = out.num_edges();

    rss::reset_peak();
    let t0 = Instant::now();
    let key = CacheKey::new(&g, c.name(), &cfg);
    let encoded = Snapshot::from_output(key, &out).encode();
    let snapshot_mb = encoded.len() as f64 / (1024.0 * 1024.0);
    std::fs::write(snap, encoded).expect("write snapshot");
    let encode_s = t0.elapsed().as_secs_f64();
    println!(
        "LEG {{\"tag\":\"mapped-build\",\"peak_rss_mb\":{},\"stream_fp\":{stream_fp},\
         \"answers_fp\":0,\"emulator_edges\":{edges_built},\"build_s\":{build_s:.3},\
         \"encode_s\":{encode_s:.3},\"encode_peak_rss_mb\":{},\"snapshot_mb\":{snapshot_mb:.3}}}",
        build_peak.map_or("null".into(), |mb| format!("{mb:.3}")),
        rss::peak_rss_mb().map_or("null".into(), |mb| format!("{mb:.3}")),
    );
}

/// Child leg: the classic heap pipeline — materialize the graph from
/// the text edge list, build on the heap, query the live engine.
fn heap_leg(edges: &Path, algo: &str, n: usize, queries: usize, threads: usize) {
    let file = std::fs::File::open(edges).expect("open edge list");
    let g = read_edge_list(std::io::BufReader::new(file), 0).expect("read edge list");
    let c = registry::find(algo).expect("algorithm registered");
    let out = c.build(&g, &build_config(threads)).expect("heap build");
    let stream_fp = out.stream_fingerprint();
    let edges_built = out.num_edges();
    let engine = out.into_query_engine();
    let fp = answers_fingerprint(&engine, &query_pairs(n, queries));
    emit_leg("heap-build", rss::peak_rss_mb(), stream_fp, fp, edges_built);
}

/// Streams the circulant edge list straight to disk — the input is
/// synthesized without ever existing as a heap graph.
fn synthesize_edge_list(path: &Path, n: usize, strides: &[usize]) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# circulant n={n} strides={strides:?}")?;
    for i in 0..n {
        for &s in strides {
            writeln!(w, "{i} {}", (i + s) % n)?;
        }
    }
    w.flush()?;
    std::fs::metadata(path).map(|m| m.len())
}

fn fmt_mb(x: Option<f64>) -> String {
    x.map_or("n/a".into(), |mb| format!("{mb:.1}"))
}

fn main() {
    let n = arg_usize("--n", 2_000_000);
    let queries = arg_usize("--queries", 24);
    let threads = arg_usize("--threads", 4);
    let algo = arg_string("--algo", "centralized");

    // Child-leg dispatch: each leg runs in its own process so its peak
    // RSS is untainted by the other stages' allocator residue.
    if has_flag("--serve-leg") {
        return serve_leg(Path::new(&arg_string("--snapshot", "")), n, queries);
    }
    if has_flag("--heap-leg") {
        let edges = arg_string("--edges", "");
        return heap_leg(Path::new(&edges), &algo, n, queries, threads);
    }
    if has_flag("--build-leg") {
        let csr = arg_string("--csr", "");
        let snap = arg_string("--snapshot", "");
        return build_leg(Path::new(&csr), Path::new(&snap), &algo, threads);
    }

    let stride_count = arg_usize("--strides", 16).clamp(1, STRIDES.len());
    let strides = &STRIDES[..stride_count];
    let dir = usnae_bench::experiments_dir().join("out_of_core");
    std::fs::create_dir_all(&dir).expect("create experiment dir");
    let edges_path = dir.join(format!("circulant-{n}-{stride_count}.txt"));
    let csr_path = dir.join(format!("circulant-{n}-{stride_count}.csr"));
    let snap_path: PathBuf = dir.join(format!("{algo}-{n}-{stride_count}.usnae-snap"));

    let m = stride_count * n;
    let heap_graph_mb = (((n + 1) + 2 * m) * 8) as f64 / (1024.0 * 1024.0);
    println!(
        "out-of-core: n={n}, m={m} (strides {strides:?}), {algo}, {threads} thread(s); \
         heap CSR footprint {heap_graph_mb:.1} MB"
    );

    let mut table = Table::new(
        "e10_out_of_core",
        &["stage", "seconds", "peak_rss_mb", "detail"],
    );
    // (stage, seconds, peak) triples, re-emitted into the JSON document.
    let mut legs: Vec<(String, f64, Option<f64>)> = Vec::new();
    let mut stage = |name: &str, seconds: f64, peak: Option<f64>, detail: String| {
        legs.push((name.to_string(), seconds, peak));
        table.push_row(vec![
            name.to_string(),
            format!("{seconds:.2}"),
            fmt_mb(peak),
            detail,
        ]);
    };

    // Stage 1: synthesize the edge-list text file (streamed write).
    let t0 = Instant::now();
    let bytes = synthesize_edge_list(&edges_path, n, strides).expect("write edge list");
    stage(
        "synthesize",
        t0.elapsed().as_secs_f64(),
        None,
        format!("{:.1} MB text", bytes as f64 / (1024.0 * 1024.0)),
    );

    // Stage 2: streaming two-pass load into the CSR file.
    rss::reset_peak();
    let t0 = Instant::now();
    let stats = stream_edge_list_to_csr_file(&edges_path, &csr_path, &StreamOptions::default())
        .expect("stream edge list");
    assert_eq!((stats.num_vertices, stats.num_edges), (n, m));
    stage(
        "stream-load",
        t0.elapsed().as_secs_f64(),
        rss::peak_rss_mb(),
        format!("{} lines -> csr", stats.lines),
    );

    // Stages 3 + 4: build over the file-backed graph and encode the v4
    // snapshot, in a fresh child process so the build's peak RSS is not
    // inflated by this process's allocator residue from stream-load.
    let build = run_child(&[
        "--build-leg".into(),
        "--csr".into(),
        csr_path.display().to_string(),
        "--snapshot".into(),
        snap_path.display().to_string(),
        "--algo".into(),
        algo.clone(),
        "--kappa".into(),
        arg_usize("--kappa", 8).to_string(),
        "--threads".into(),
        threads.to_string(),
    ]);
    let build_peak = build.peak_rss_mb;
    let mapped_stream_fp = build.stream_fp;
    let emulator_edges = build.emulator_edges;
    stage(
        "mapped-build",
        build.build_s.unwrap_or_default(),
        build_peak,
        format!("{emulator_edges} emulator edges"),
    );
    stage(
        "snapshot-encode",
        build.encode_s.unwrap_or_default(),
        build.encode_peak_rss_mb,
        format!("{:.1} MB snapshot", build.snapshot_mb.unwrap_or_default()),
    );

    // Stage 5: serve the snapshot in a fresh process (clean peak RSS).
    let t0 = Instant::now();
    let serve = run_child(&[
        "--serve-leg".into(),
        "--snapshot".into(),
        snap_path.display().to_string(),
        "--n".into(),
        n.to_string(),
        "--queries".into(),
        queries.to_string(),
    ]);
    assert_eq!(serve.stream_fp, mapped_stream_fp, "served stream diverged");
    stage(
        "mapped-serve",
        t0.elapsed().as_secs_f64(),
        serve.peak_rss_mb,
        format!("{queries} certified queries"),
    );

    // Stage 6 (optional): heap reference leg, also in a fresh process.
    let heap = has_flag("--heap-baseline").then(|| {
        let t0 = Instant::now();
        let heap = run_child(&[
            "--heap-leg".into(),
            "--edges".into(),
            edges_path.display().to_string(),
            "--algo".into(),
            algo.clone(),
            "--kappa".into(),
            arg_usize("--kappa", 8).to_string(),
            "--n".into(),
            n.to_string(),
            "--queries".into(),
            queries.to_string(),
            "--threads".into(),
            threads.to_string(),
        ]);
        assert_eq!(
            heap.stream_fp, mapped_stream_fp,
            "heap and mapped builds diverged"
        );
        assert_eq!(
            heap.answers_fp, serve.answers_fp,
            "heap and mapped-served answers diverged"
        );
        assert_eq!(heap.emulator_edges, serve.emulator_edges);
        stage(
            "heap-build",
            t0.elapsed().as_secs_f64(),
            heap.peak_rss_mb,
            "reference: read_edge_list + build + query".into(),
        );
        heap
    });

    emit("e10_out_of_core", &table);
    println!(
        "parity: stream fingerprint {mapped_stream_fp:#018x}, answers {:#018x}",
        serve.answers_fp
    );

    // The memory claims, as hard assertions under --assert.
    let mut failures = Vec::new();
    let mut serving_bounded = None;
    let mut build_parity = None;
    if let Some(serve_mb) = serve.peak_rss_mb {
        let ok = serve_mb < heap_graph_mb;
        serving_bounded = Some(ok);
        println!(
            "serving peak {serve_mb:.1} MB vs heap graph {heap_graph_mb:.1} MB — {}",
            if ok { "BOUNDED" } else { "EXCEEDED" }
        );
        if !ok {
            failures.push("serving peak exceeded the heap graph footprint".to_string());
        }
    }
    if let (Some(h), Some(build_mb)) = (&heap, build_peak) {
        if let Some(heap_mb) = h.peak_rss_mb {
            // Parity bound, not strict: construction state dominates both
            // pipelines, and the mapped graph's resident file pages count
            // toward `VmHWM` even though the kernel can evict them under
            // pressure (the anonymous heap pages of the baseline cannot).
            // The claim is "out-of-core input costs no extra memory".
            let ok = build_mb <= heap_mb * 1.1;
            build_parity = Some(ok);
            println!(
                "mapped build peak {build_mb:.1} MB vs heap pipeline peak {heap_mb:.1} MB — {}",
                if ok { "NO OVERHEAD" } else { "EXCEEDED" }
            );
            if !ok {
                failures.push("mapped build peaked >10% above the heap pipeline".to_string());
            }
        }
    }

    // Peak-RSS legs into the bench-trend artifact series (CI uploads
    // this next to the `BENCH_<sha>.json` timing documents).
    let json_path = arg_string(
        "--json",
        &dir.join("e10_out_of_core.json").display().to_string(),
    );
    let json_bool = |b: Option<bool>| b.map_or("null".to_string(), |v| v.to_string());
    let legs_json: Vec<String> = legs
        .iter()
        .map(|(name, seconds, peak)| {
            format!(
                "{{\"stage\":{},\"seconds\":{seconds:.3},\"peak_rss_mb\":{}}}",
                json_string(name),
                peak.map_or("null".into(), |mb| format!("{mb:.3}"))
            )
        })
        .collect();
    let doc = format!(
        "{{\"experiment\":\"out_of_core\",\"algo\":{},\"n\":{n},\"m\":{m},\
         \"threads\":{threads},\"kappa\":{},\"heap_graph_mb\":{heap_graph_mb:.3},\
         \"emulator_edges\":{emulator_edges},\"stream_fp\":{mapped_stream_fp},\
         \"serving_bounded\":{},\"build_parity\":{},\"legs\":[{}]}}\n",
        json_string(&algo),
        arg_usize("--kappa", 8),
        json_bool(serving_bounded),
        json_bool(build_parity),
        legs_json.join(",")
    );
    if let Some(parent) = Path::new(&json_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&json_path, doc).expect("write bench json");
    println!("[json] {json_path}");

    if has_flag("--assert") && !failures.is_empty() {
        for f in &failures {
            eprintln!("out-of-core assertion failed: {f}");
        }
        std::process::exit(1);
    }
}
