#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/tests/test_perfbench.py

Runs perfbench/run.py with --tiny on every workload named in
BENCHMARK.json and checks that it prints every end-to-end metric
(--trace 0) and every per-layer metric (--trace 1) with its unit, that
the exact counts agree between two runs with different seeds, and that
they agree between daemon pool widths 1 and 2.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace=0, *extra):
    """Run the benchmark tiny; returns (result line, count digests)."""
    with tempfile.TemporaryDirectory() as tmp:
        counts = os.path.join(tmp, "counts.json")
        out = subprocess.run(
            ["python3", os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--tiny",
             "--counts-out", counts] + list(extra),
            cwd=ROOT, check=True, text=True, stdout=subprocess.PIPE,
            timeout=600).stdout
        with open(counts) as f:
            digests = json.load(f)
    return json.loads(out.strip().splitlines()[-1]), digests


class TinyRuns(unittest.TestCase):

    def check_result(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec_metrics})
        for m in spec_metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_and_repeatable_counts(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                first, counts1 = run(w["name"], 1)
                self.check_result(first, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(first["metrics"][m["name"]]["value"],
                                       0, m["name"])
                traced, counts2 = run(w["name"], 2, 1)
                self.check_result(traced, SPEC["per_layer"])
                self.assertTrue(counts1)
                # The traced run covers every job and request kind the
                # timed one does, with identical exact counts.
                for key, digest in counts1.items():
                    self.assertEqual(counts2.get(key), digest, key)

    def test_serve_pool_width(self):
        _, one = run("serve", 3, 0, "--pool-jobs", "1")
        _, two = run("serve", 3, 0, "--pool-jobs", "2")
        self.assertTrue(one)
        self.assertEqual(one, two)


if __name__ == "__main__":
    sys.exit(unittest.main())
