#!/usr/bin/env python3
"""Build and run the usnae benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (and the `usnae-worker` it spawns) from
source into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload
and passes its output through. The last line of standard output is the
JSON result. Before printing it, the launcher checks that its metric
names and units are exactly those `BENCHMARK.json` lists for the mode
(`end_to_end` for --trace 0, `per_layer` for --trace 1).

Exit codes: that of the benchmark (0 only when every output check
passed), 2 when the benchmark cannot be built, 3 when its result does
not match `BENCHMARK.json`, 4 when it overruns its time limit.
"""

import json
import math
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def expected_metrics(traced):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(3, f"cannot read BENCHMARK.json: {e}")
    kind = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def validate(line, traced):
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    want = expected_metrics(traced)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"metric {name} has value {v!r}"
    return None


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail(2, "usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    traced = args[args.index("--trace") + 1:][:1] == ["1"]
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        fail(2, f"{manifest} not found; run from the root of a checkout")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, "--bins"]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, f"build failed: {e}")
    if built.returncode != 0:
        fail(2, f"build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        fail(4, f"benchmark ran longer than {RUN_TIMEOUT_S} s and was stopped")
    lines = run.stdout.rstrip("\n").split("\n")
    problem = validate(lines[-1], traced) if lines and lines[-1] else "no output"
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(3, problem)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
