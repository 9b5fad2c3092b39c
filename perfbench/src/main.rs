//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its inputs from the seed, sets up, measures the
//! workload for the given seconds through the library's public calls,
//! checks every output, prints each metric by name and unit, and ends
//! with one JSON result line. `--trace 0` reports the end-to-end metrics
//! of an untraced pass. `--trace 1` runs an untraced pass and then a
//! traced one, reports the per-layer metrics of the traced pass plus the
//! tracing overhead between the two, and writes the spans as a Chrome
//! trace-event file. The exit code is 0 only when every check passed.

mod common;
mod daemon_mix;
mod mapped_query;
mod registry_build;
mod socket_build;

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::{self, Values, LAYERS};
use perfbench::trace::{self, Span};

use common::{Ctx, Pass};

type Workload = fn(&Ctx, bool) -> Pass;

const WORKLOADS: [(&str, Workload); 4] = [
    ("registry-build", registry_build::run),
    ("socket-build", socket_build::run),
    ("mapped-query", mapped_query::run),
    ("daemon-mix", daemon_mix::run),
];

struct Args {
    workload: (&'static str, Workload),
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Points the socket transport at the `usnae-worker` built next to this
/// executable by the same build command.
fn use_sibling_worker() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let worker = exe.with_file_name(format!("usnae-worker{}", std::env::consts::EXE_SUFFIX));
    if !worker.is_file() {
        return Err(format!("no usnae-worker next to {}", exe.display()));
    }
    std::env::set_var(usnae_workers::process::WORKER_BIN_ENV, &worker);
    Ok(())
}

fn print_metrics(defs: &[metrics::MetricDef], values: &Values) {
    for d in defs {
        let v = values.get(&d.name).copied().unwrap_or(0.0);
        println!("{:<40} {v:>16.6} {}", d.name, d.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = use_sibling_worker() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    match perfbench::sys::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}, with every thread and worker child"),
        None => println!("running unpinned: the CPU affinity cannot be set"),
    }
    let (name, run) = args.workload;
    let out_dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: out_dir.join(format!("perfbench-work/{name}-{}", std::process::id())),
    };
    println!(
        "workload {name}, seed {}, {} s measured, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );

    let untraced = run(&ctx, false);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let (defs, values) = if args.traced {
        trace::set_recording(true);
        let traced = {
            let _root = Span::new("bench", format!("workload {name}"));
            run(&ctx, true)
        };
        trace::set_recording(false);
        let spans = trace::take();
        attempted += traced.attempted;
        failed += traced.failed;
        let mut values = traced.layer;
        let self_s = trace::self_seconds(&spans);
        for layer in LAYERS {
            values.insert(
                format!("{layer}.self_s"),
                self_s.get(layer).copied().unwrap_or(0.0),
            );
        }
        let overhead = if untraced.mean_op_s > 0.0 {
            traced.mean_op_s / untraced.mean_op_s - 1.0
        } else {
            0.0
        };
        values.insert("trace.overhead_frac".into(), overhead);
        values.insert(
            "checks.fail_ratio".into(),
            failed as f64 / attempted.max(1) as f64,
        );
        let path = out_dir.join(format!("perfbench-trace-{name}-seed{}.json", args.seed));
        match std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        {
            Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write trace file {}: {e}", path.display());
                failed += 1;
            }
        }
        (metrics::per_layer(), values)
    } else {
        (metrics::end_to_end(), untraced.e2e)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    println!(
        "fail_ratio {:.6} ({failed} of {attempted} operations and checks failed)",
        failed as f64 / attempted.max(1) as f64
    );
    print_metrics(&defs, &values);
    println!(
        "{}",
        metrics::result_line(failed == 0, attempted, failed, &defs, &values)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
