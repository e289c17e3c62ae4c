#!/usr/bin/env python3
"""Self-test of the AutomataZoo benchmark.

    python3 azbench/test_azbench.py

Run from the repository root. Runs every workload at tiny size, with
and without tracing, and checks that the result line carries exactly
the metrics BENCHMARK.json names, with their units; that a perturbed
report is caught by the oracle; and that the command fails cleanly
in a directory holding only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[-1] if lines else ""


class Workloads(unittest.TestCase):
    def check_metrics(self, result, defs):
        self.assertEqual(set(result), RESULT_KEYS)
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(d["name"] for d in defs))
        for d in defs:
            self.assertEqual(got[d["name"]]["unit"], d["unit"], d["name"])
            self.assertIsInstance(got[d["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    rc, line = run(w["name"], trace)
                    self.assertEqual(rc, 0, line)
                    result = json.loads(line)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, SPEC[key])
                    if trace == 0:
                        for d in SPEC["end_to_end"]:
                            self.assertGreater(
                                result["metrics"][d["name"]]["value"], 0,
                                d["name"])

    def test_oracle_catches_a_perturbed_report(self):
        for workload in ("regex_scan", "serve_stream"):
            with self.subTest(workload=workload):
                rc, line = run(workload, 0, "--perturb")
                self.assertNotEqual(rc, 0)
                result = json.loads(line)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            env = dict(os.environ, CARGO_TARGET_DIR="")
            p = subprocess.run(
                SPEC["command"] + ["--workload", "sig_scan", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
