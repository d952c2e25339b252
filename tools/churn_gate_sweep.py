#!/usr/bin/env python3
"""Sweep the churn workload's correctness gate over many seeds.

Usage (from the repository root):

    python3 tools/churn_gate_sweep.py
    python3 tools/churn_gate_sweep.py --seeds 1-10,17 --seconds 2.5 --full 201

Runs `perfbench/run.py --workload churn --trace 0` once per seed: every
seed of --seeds at --seconds, then every seed of --full at the benchmark's
default length.  Prints one line per run with the gate's `correct` flag and
its failed/attempted checks; a failing run also prints the gate's own
messages (each names the tick and its difference from a from-scratch
Lia::learn).  Exits non-zero if any run fails or cannot start.

Defaults: seeds 1-40 at --seconds 2.5, plus --full 201,301,1009.  A change
to the drop-negative solve's bits can trip the gate on one seed in dozens,
so one seed's pass says little.  The sweep only invokes the benchmark.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def parse_seeds(text):
    """'1-3,7' -> [1, 2, 3, 7]; an empty string gives no seeds."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_seed(seed, seconds):
    """One churn run; returns (passed, report line, gate messages)."""
    command = [sys.executable, RUN, "--workload", "churn", "--seed",
               str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    length = "full" if seconds is None else "%gs" % seconds
    if result is None:
        tail = proc.stderr.strip().splitlines()[-3:]
        return False, "seed %d (%s): no result, exit %d" % (
            seed, length, proc.returncode), tail
    passed = proc.returncode == 0 and result["correct"]
    line = "seed %d (%s): correct: %s failed: %d/%d" % (
        seed, length, "true" if result["correct"] else "false",
        result["failed"], result["attempted"])
    messages = [] if passed else [
        m for m in proc.stderr.splitlines() if m.startswith("gate:")]
    return passed, line, messages


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-40",
                        help="seeds run at --seconds, e.g. 1-40 or 3,5-9")
    parser.add_argument("--seconds", type=float, default=2.5)
    parser.add_argument("--full", default="201,301,1009",
                        help="seeds run at the benchmark's default length")
    args = parser.parse_args()

    runs = [(s, args.seconds) for s in parse_seeds(args.seeds)]
    runs += [(s, None) for s in parse_seeds(args.full)]
    failures = 0
    for seed, seconds in runs:
        passed, line, messages = run_seed(seed, seconds)
        print(line, flush=True)
        for message in messages:
            print("  " + message, flush=True)
        failures += not passed
    print("%d of %d runs passed the gate" % (len(runs) - failures, len(runs)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
