#!/usr/bin/env python3
"""Self-tests for tools/bench_compare.py.

Each test writes a small trajectory file and runs the tool on it: the
median over repeated labels, single-run output that stays byte-for-byte
as it was, exit 2 for an unknown label, and exit 1 for a failed
--geomean-floor. Runs under ctest as `bench_compare_test` (plain unittest).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO, "tools", "bench_compare.py")


def run(label, backend, benchmarks):
    """One trajectory run; `benchmarks` maps name -> (real_time_us, ips)."""
    return {"label": label, "backend": backend,
            "benchmarks": [{"name": name, "real_time_us": t,
                            "items_per_second": ips}
                           for name, (t, ips) in benchmarks.items()]}


SINGLE_RUNS = [
    run("base", "scalar", {"A/1": (10.0, 1000.0), "B/2": (20.0, 0)}),
    run("new", "avx2", {"A/1": (8.0, 1250.0), "B/2": (25.0, 0)}),
]

SINGLE_RUN_OUTPUT = """\
# demo: base (scalar) -> new (avx2)
benchmark     base_us      new_us   speedup
A/1       10.00        8.00     1.25x
B/2       20.00       25.00     0.80x

2 benchmarks; best 1.25x, geomean 1.00x, worst 0.80x
"""


class BenchCompareTest(unittest.TestCase):

    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="bench_compare_test_")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def compare(self, runs, *args):
        path = os.path.join(self.dir, "BENCH_demo.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"bench_id": "demo", "runs": runs}, f)
        return subprocess.run([sys.executable, TOOL, path] + list(args),
                              capture_output=True, text=True)

    def test_single_run_output_is_unchanged(self):
        for args in ((), ("--base", "base", "--new", "new")):
            proc = self.compare(SINGLE_RUNS, *args)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(proc.stdout, SINGLE_RUN_OUTPUT)

    def test_repeated_labels_compare_medians(self):
        # Base throughputs 100/300/110 (median 110), new 121/10/130 (median
        # 121): 1.10x, although the first runs alone would read 1.21x and
        # the second ones 0.03x.
        runs = [run("base", "cpu", {"A": (10.0, 100.0)}),
                run("new", "cpu", {"A": (8.0, 121.0)}),
                run("base", "cpu", {"A": (3.0, 300.0)}),
                run("new", "cpu", {"A": (100.0, 10.0)}),
                run("base", "cpu", {"A": (9.0, 110.0)}),
                run("new", "cpu", {"A": (7.0, 130.0)})]
        proc = self.compare(runs, "--base", "base", "--new", "new",
                            "--geomean-floor", "1.05")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("# demo: base x3 (cpu) -> new x3 (cpu)", proc.stdout)
        row = [line for line in proc.stdout.splitlines()
               if line.startswith("A ")]
        self.assertEqual(len(row), 1, proc.stdout)
        # Median times 9.00 -> 8.00, speedup 1.10x, base spread
        # (300 - 100) / 110.
        self.assertEqual(row[0].split(), ["A", "9.00", "8.00", "1.10x",
                                          "181.8%"])
        self.assertIn("geomean 1.10x", proc.stdout)

    def test_unknown_label_exits_2(self):
        proc = self.compare(SINGLE_RUNS, "--base", "nope", "--new", "new")
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("no run labeled 'nope'", proc.stderr)

    def test_failed_geomean_floor_exits_1(self):
        proc = self.compare(SINGLE_RUNS, "--geomean-floor", "1.05")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL: geomean 1.00x < 1.05x", proc.stdout)


if __name__ == "__main__":
    unittest.main()
