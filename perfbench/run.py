#!/usr/bin/env python3
"""Repo benchmark: builds perfbench/ from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both runs

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Every metric is printed as "name value unit"; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit status
is non-zero when the correctness gate fails or the run cannot start.
--tiny selects the small test variant of each workload; --threads sets the
library worker count (default 2).  See perfbench/README.md.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/),
relative to the repository root; build output is sent to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workloads of BENCHMARK.json.  tree-drop also runs by name: it
# reproduces a finding (README.md) and is not part of the benchmark.
WORKLOADS = ("overlay-keepall", "churn")
EXTRA_WORKLOADS = ("tree-drop",)
RUN_TIMEOUT_S = 175


def output_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "monitor.hpp")):
        raise RuntimeError("no losstomo sources next to perfbench/ "
                           "(expected src/core/monitor.hpp)")
    build_dir = os.path.join(output_dir(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lia_perfbench")


def run_one(binary, workload, args, trace):
    """Runs one workload; returns (exit status, parsed result or None)."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--threads", str(args.threads),
               "--scratch", os.path.join(output_dir(), "perfbench-data")]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def run_all(binary, args):
    """Every workload, untraced and traced; one combined result line."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(binary, workload, args, trace)
            status = status or code
            if result is None:
                correct = False
                continue
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics[workload + "." + name] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status if status else (0 if correct else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
        if args.workload == "all":
            return run_all(binary, args)
        code, _ = run_one(binary, args.workload, args, args.trace)
        return code
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
