#!/usr/bin/env python3
"""Checks the benchmark's output against BENCHMARK.json.

For every declared workload, a short untraced run must print exactly the
declared end-to-end metrics and a traced run exactly the declared per-layer
metrics, each with its declared unit, and predictions.json must name what
each per-layer metric should move.

    python3 perfbench/test_output.py [--binary PATH]

Without --binary the benchmark is built first (see run.py).
"""
import argparse
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = None


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class OutputCarriesDeclaredMetrics(unittest.TestCase):
    def check(self, trace, key):
        spec = declared()
        units = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, result = run(w["name"], trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, units)
                for m in result["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")

    def test_predictions_cover_per_layer_metrics(self):
        spec = declared()
        predictions = json.loads((HERE / "predictions.json").read_text())
        workloads = {w["name"] for w in spec["workloads"]}
        e2e = {m["name"] for m in spec["end_to_end"]}
        moves = predictions["per_layer"]
        self.assertEqual(set(moves), {m["name"] for m in spec["per_layer"]})
        for name, targets in moves.items():
            with self.subTest(metric=name):
                # Only an informational metric may predict no move.
                self.assertEqual(not targets,
                                 name in predictions["informational"])
                for t in targets:
                    self.assertIn(t["metric"], e2e)
                    self.assertTrue(set(t["workloads"]) <= workloads)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary")
    args, rest = ap.parse_known_args()
    if args.binary:
        BINARY = args.binary
    else:
        sys.path.insert(0, str(HERE))
        import run as runner  # noqa: E402
        BINARY = str(runner.build())
    unittest.main(argv=[sys.argv[0]] + rest)
