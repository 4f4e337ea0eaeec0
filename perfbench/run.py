#!/usr/bin/env python3
"""Build and run one benchmark run of the Falcon pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default .bench_build), runs it, and prints a provenance
line followed by the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Exits non-zero, printing no result,
when the build or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark binary; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "falcon-perfbench")


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace):
    """One run; returns (provenance, result) or exits non-zero."""
    binary = build()
    tmp = os.path.join(target_dir(), "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tmp", tmp]
    try:
        # subprocess.run kills the child on timeout and waits for it.
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail("benchmark printed no result")
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    missing = listed_metrics(trace) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    provenance.update(
        cpu=cpu_model(),
        rustc=command_output(["rustc", "-V"]),
        revision=command_output(["git", "rev-parse", "HEAD"]),
    )
    return provenance, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")
    provenance, result = run(a.workload, a.seed, a.seconds, a.trace)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
