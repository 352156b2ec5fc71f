#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload hit-1k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is the result: {"correct", "attempted", "failed",
"metrics"}, where metrics are BENCHMARK.json's end_to_end metrics with
--trace 0 and its per_layer metrics with --trace 1. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNTIME_WORKLOADS = ("hit-1k", "miss-heavytail")
MEASURE_BUDGET_S = 170  # all perfbench invocations of one run, after the build


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulator.hpp")):
        fail("repository sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def measure(binary, args, deadline):
    """Run one perfbench invocation; returns its JSON record."""
    try:
        proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{os.path.basename(binary)} {' '.join(args)} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    try:
        build_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    deadline = time.monotonic() + MEASURE_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--sim-expected", os.path.join(HERE, "sim_expected.tsv")]
    if args.trace == 0:
        runs = [measure(os.path.join(build_dir, "perfbench"),
                        common + ["--seconds", str(args.seconds), "--phase", "full"],
                        deadline)]
        wanted = spec["end_to_end"]
    else:
        # The counting allocator is linked only into perfbench_traced. Its
        # untraced "base" phase gives the counters, the hit/miss split and
        # the probes; its "traced" phase adds the spans.
        traced_binary = os.path.join(build_dir, "perfbench_traced")
        half = str(args.seconds / 2)
        runs = [measure(traced_binary, common + ["--seconds", half, "--phase", "base"],
                        deadline)]
        if args.workload in RUNTIME_WORKLOADS:
            spans_dir = os.path.join(build_dir, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"{args.workload}.tsv")  # the latest run
            runs.append(measure(traced_binary, common + [
                "--seconds", half, "--phase", "traced", "--spans-out", spans], deadline))
        wanted = spec["per_layer"]

    values = dict(runs[0]["values"])
    if len(runs) == 2:
        base = runs[0]["values"]["server_cpu_us_per_req"]["value"]
        traced = runs[1]["values"]
        values["trace.base_cpu_us_per_req"] = {"value": base, "unit": "us"}
        values["trace.overhead_pct"] = {
            "value": 100.0 * (traced["server_cpu_us_per_req"]["value"] - base) / base,
            "unit": "%"}
        for name, entry in traced.items():
            if name != "server_cpu_us_per_req":
                values[name] = entry

    metrics = {}
    for metric in wanted:
        entry = values.get(metric["name"])
        if entry is None:
            if args.trace == 0:
                fail(f"{metric['name']} was not measured")
            entry = {"value": 0.0}  # a layer this workload does not run
        metrics[metric["name"]] = {"value": entry["value"], "unit": metric["unit"]}

    for run in runs:
        for check in run["checks_failed"]:
            print(f"check failed: {check}", file=sys.stderr)
        print("run record: " + json.dumps(run["info"], sort_keys=True))
    result = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
