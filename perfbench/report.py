#!/usr/bin/env python3
"""Print every benchmark metric with its spread, from repeated runs.

Usage, from the repository root:

    python3 perfbench/report.py [--runs N]

Runs perfbench/run.py on every workload of BENCHMARK.json once per seed
1..N, untraced and traced, for the run length BENCHMARK.json sets, and
prints for every end-to-end and
per-layer metric its unit, median, first and third quartile, the quartile
spread as a share of the median, and the sample count. End-to-end rows also
show the metric's bound from BENCHMARK.json. The last lines give each
workload's tracing overhead (traced wall minus untraced wall of the same
jobs), the failed share of jobs and checks, and the host the runs used.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=3)
    a = p.parse_args()
    seeds = range(1, a.runs + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    provenance = None
    print(f"{'workload':<12} {'metric':<28} {'unit':<6} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6} {'n':>3}")
    overheads = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            samples, attempted, failed = {}, 0, 0
            for seed in seeds:
                prov, result = run.run(w, seed, spec["run_seconds"], trace)
                provenance = provenance or prov
                attempted += result["attempted"]
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    samples.setdefault(name, (m["unit"], []))[1].append(m["value"])
            for name, (unit, values) in sorted(samples.items()):
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                bound = f"{bounds[name]:.2f}" if name in bounds else ""
                print(f"{w:<12} {name:<28} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>7.3f} {bound:>6} {len(values):>3}")
            print(f"{w:<12} {'(trace ' + str(trace) + ') failed':<28} {failed} of {attempted} "
                  f"jobs and checks")
            if "trace.overhead_s" in samples:
                overheads.append((w, statistics.median(samples["trace.overhead_s"][1])))
    for w, o in overheads:
        print(f"tracing overhead {w}: {o:.3f} s median (traced minus untraced wall)")
    print("host: " + json.dumps(provenance))


if __name__ == "__main__":
    main()
