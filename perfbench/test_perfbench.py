"""Tests for the benchmark's own helpers and its metric contract.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds perfbench/ the way run.py does, runs the C++ selftest (nearest-rank
percentile rule, open-loop due-time/lateness/backlog math, seeded
samplers, closed-loop accounting against a server that closes each
connection after one response), checks that the metric names and units
the program prints on every workload are exactly the ones BENCHMARK.json
lists, and checks that run.py fails without printing a result when the
tree it would build is missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the module under test lives beside this file)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        listing = subprocess.run(
            [str(cls.build_dir / "asrel_perfbench"), "--list-metrics"],
            capture_output=True, text=True, check=True).stdout
        cls.declared = json.loads(listing)

    def test_selftest_passes(self):
        result = subprocess.run([str(self.build_dir / "perfbench_selftest")],
                                capture_output=True, text=True, check=False)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_workloads_match(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(self.declared["workloads"]))
        self.assertEqual(sorted(run.WORKLOADS),
                         sorted(self.declared["workloads"]))

    def check_metric_list(self, key):
        listed = [[m["name"], m["unit"]] for m in self.spec[key]]
        self.assertEqual(len({name for name, _ in listed}), len(listed),
                         "duplicate name")
        self.assertEqual(self.declared[key], listed)

    def test_end_to_end_names_match(self):
        self.check_metric_list("end_to_end")

    def test_per_layer_names_match(self):
        self.check_metric_list("per_layer")

    def test_every_run_reports_setup_memory_and_overhead(self):
        end_to_end = {name for name, _ in self.declared["end_to_end"]}
        self.assertIn("setup_s", end_to_end)
        self.assertIn("peak_rss_mb", end_to_end)
        self.assertIn("trace.overhead_pct",
                      {name for name, _ in self.declared["per_layer"]})

    def test_workload_layers_stay_out_of_the_result_line(self):
        shared = {name for name, _ in self.declared["per_layer"]}
        for workload, lists in self.declared["workloads"].items():
            names = [name for name, _ in lists["layers"]]
            self.assertEqual(len(set(names)), len(names), workload)
            self.assertFalse(shared & set(names), workload)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_refuses_a_tree_without_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            copy = Path(scratch)
            shutil.copy(run.ROOT / "BENCHMARK.json", copy)
            shutil.copytree(run.HERE, copy / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_static", "--seed", "1", "--seconds", "1"],
                cwd=copy, capture_output=True, text=True, timeout=60,
                check=False)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
