#!/usr/bin/env python3
"""Self-test of the benchmark: its output checks can fire, and it runs clean.

    python3 perfbench/tests/selftest.py

- A tiny-size smoke run of each workload finishes with zero failed
  operations and reports every metric of BENCHMARK.json in its unit:
  the end-to-end ones untraced, the per-layer ones traced.
- Each deliberately broken expectation (runner --inject) makes its run
  report failed operations and correct = false.
- In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(*args, cwd=ROOT, run_py=RUN):
    proc = subprocess.run([sys.executable, run_py, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900, check=False)
    return proc


def result(*args):
    proc = run(*args)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class SmokeRuns(unittest.TestCase):
    def test_each_workload_runs_clean(self):
        end_to_end = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
        for workload in ("repro", "aging_fleet", "auth_verify"):
            with self.subTest(workload=workload):
                r = result("--workload", workload, "--tiny", "--seconds", "1")
                self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual({k: m["unit"] for k, m in r["metrics"].items()}, end_to_end)
                for m in r["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        per_layer = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        for workload in ("aging_fleet", "auth_verify"):
            with self.subTest(workload=workload):
                r = result("--workload", workload, "--tiny", "--seconds", "1", "--trace", "1")
                self.assertTrue(r["correct"])
                self.assertEqual({k: m["unit"] for k, m in r["metrics"].items()}, per_layer)
                shares = sum(v["value"] for k, v in r["metrics"].items() if k.endswith(".share"))
                self.assertAlmostEqual(shares, 1.0, delta=0.02)


class ChecksFire(unittest.TestCase):
    """Every kind of output check, broken on purpose, counts failed operations."""

    # inject -> (workload, seconds)
    INJECTIONS = {
        "repro.band": ("repro", 1),              # calibration band
        "repro.identity": ("repro", 1),          # N-thread batches vs the 1-thread batch
        "aging.reference": ("aging_fleet", 1),   # composed pipeline vs scenario functions
        "aging.pass": ("aging_fleet", 1),        # every pass identical to the first
        "aging.identity": ("aging_fleet", 1),    # 1-thread vs N-thread check population
        "aging.band": ("aging_fleet", 1),        # 10-year flip band
        "auth.digest": ("auth_verify", 1),       # N-client vs 1-client block decision digest
        "auth.missing": ("auth_verify", 1),      # a verify that returns no value
        "auth.enroll_bytes": ("auth_verify", 1),  # re-enrollment writes the same store
        "auth.device_count": ("auth_verify", 1),  # the store holds the whole fleet
        "auth.tail": ("auth_verify", 1),         # enough samples beyond the tail
        "build.type": ("aging_fleet", 1),        # Release build required
    }

    def test_injected_expectations_fail(self):
        for inject, (workload, seconds) in self.INJECTIONS.items():
            with self.subTest(inject=inject):
                r = result("--workload", workload, "--tiny", "--seconds", str(seconds),
                           "--inject", inject)
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("--workload", "repro", "--seconds", "1", cwd=bare,
                       run_py=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
