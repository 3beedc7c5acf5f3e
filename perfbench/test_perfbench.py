#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

* A short smoke run of every workload, untraced and traced, asserting that
  each metric BENCHMARK.json names is emitted with its unit and that the
  run's checks pass.
* A negative case: with no model published every decision falls back to the
  native optimizer, and the model_share check must fail the run.

Each run goes through perfbench/run.py, so the first test also builds.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(SECONDS),
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_emits_every_metric(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, err = run(w["name"], trace)
                    self.assertIsNotNone(result, err)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, wanted)


class NegativeTest(unittest.TestCase):
    def test_forced_fallback_fails_model_share(self):
        code, result, err = run("recurring_hot", 0, "--force-fallback")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result, err)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["model_share"]["value"], 0.0)
        self.assertIn("model_share", err)


if __name__ == "__main__":
    unittest.main()
