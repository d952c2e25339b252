#!/usr/bin/env python3
"""Tests of the repo benchmark, on the tiny variant of each workload.

    python3 perfbench/test_perfbench.py        # builds first; about a minute

Checks that the correctness gate passes on every workload (also on a
held-out seed), that every metric BENCHMARK.json names is emitted with its
unit and a well-formed name, that the counts later changes may cite repeat
exactly across runs and worker counts, and that the benchmark refuses to
run without the sources next to it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SEED = 1
HELD_OUT_SEED = 2
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]+$")
# Per trace mode: metrics that are counts of the program's own work or
# pure functions of the inputs, so they repeat exactly.
DETERMINISTIC = {
    0: ("checkpoint_mb",),
    1: ("solve.pcg_iters_per_tick", "solve.refactorizations",
        "solve.rank1_updates", "accumulate.drift_refreshes",
        "eliminate.kept_p50", "eliminate.unchanged_ratio",
        "detection_rate", "false_positive_rate"),
}


def run_tiny(binary, workload, trace, seed=SEED, threads=2):
    """Runs one tiny workload; returns (process, parsed last line)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--threads", str(threads), "--tiny",
         "--scratch", os.path.join(bench.output_dir(), "perfbench-data")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.cache = {}

    def result(self, workload, trace, seed=SEED):
        key = (workload, trace, seed)
        if key not in self.cache:
            proc, result = run_tiny(self.binary, workload, trace, seed)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.cache[key] = result
        return self.cache[key]

    def assert_gate_passes(self, seed):
        for workload in bench.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace, seed=seed):
                    result = self.result(workload, trace, seed)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_gate_passes_on_every_workload(self):
        self.assert_gate_passes(SEED)

    def test_gate_passes_on_held_out_seed(self):
        self.assert_gate_passes(HELD_OUT_SEED)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(bench.WORKLOADS))

    def test_every_named_metric_is_emitted_with_its_unit(self):
        declared = {0: self.spec["end_to_end"], 1: self.spec["per_layer"]}
        for trace, metrics in declared.items():
            for workload in bench.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    emitted = self.result(workload, trace)["metrics"]
                    self.assertEqual(sorted(emitted),
                                     sorted(m["name"] for m in metrics))
                    for metric in metrics:
                        name = metric["name"]
                        self.assertRegex(name, NAME_RE)
                        self.assertRegex(emitted[name]["unit"], UNIT_RE)
                        self.assertEqual(emitted[name]["unit"], metric["unit"])
                        self.assertIsInstance(emitted[name]["value"],
                                              (int, float))

    def test_counts_repeat_across_runs_and_worker_counts(self):
        for workload in bench.WORKLOADS:
            for trace, names in DETERMINISTIC.items():
                with self.subTest(workload=workload, trace=trace):
                    first = self.result(workload, trace)["metrics"]
                    for threads in (2, 1):
                        proc, again = run_tiny(self.binary, workload, trace,
                                               threads=threads)
                        self.assertEqual(proc.returncode, 0, proc.stderr)
                        for name in names:
                            self.assertEqual(again["metrics"][name]["value"],
                                             first[name]["value"],
                                             f"{name} at {threads} workers")

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(bench.output_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "churn",
                 "--seed", "1", "--seconds", "10", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
