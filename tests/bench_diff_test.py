#!/usr/bin/env python3
"""Tests for tools/bench_diff.py --against-best.

Each case builds a throwaway git repository in a temporary directory,
commits a short BENCH_demo.json history into it, writes a fresh result
next to it, and runs the tool as CI and the bench_gate target do:

    python3 tests/bench_diff_test.py tools/bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = None  # path to bench_diff.py, from argv


def bench(rows, total=1.0):
    return {"bench": "demo", "time_sec": total, "metrics": {}, "rows": rows}


def row(model, time_sec, extract_sec=None):
    r = {"model": model, "time_sec": time_sec}
    if extract_sec is not None:
        r["extract_sec"] = extract_sec
    return r


class AgainstBestTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.repo = os.path.join(self.tmp.name, "repo")
        self.current = os.path.join(self.tmp.name, "current")
        os.makedirs(self.repo)
        os.makedirs(self.current)
        self.git("init", "-q")
        self.commits = []

    def tearDown(self):
        self.tmp.cleanup()

    def git(self, *args):
        return subprocess.run(
            ["git", "-C", self.repo, "-c", "user.name=bench",
             "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false",
             *args],
            check=True, capture_output=True, text=True).stdout

    def commit(self, doc):
        with open(os.path.join(self.repo, "BENCH_demo.json"), "w") as f:
            json.dump(doc, f)
        self.git("add", "BENCH_demo.json")
        self.git("commit", "-q", "-m", f"point {len(self.commits)}")
        self.commits.append(self.git("rev-parse", "HEAD").strip())

    def run_tool(self, doc):
        with open(os.path.join(self.current, "BENCH_demo.json"), "w") as f:
            json.dump(doc, f)
        return subprocess.run(
            [sys.executable, TOOL, "--against-best",
             "--current-dir", self.current, "--benches", "demo",
             "--threshold", "1.3", "--min-time", "0.05"],
            cwd=self.repo, capture_output=True, text=True)

    def test_slower_than_an_older_best_fails(self):
        # The newest point drifted up by 1.2x, then 1.25x: each step is
        # within 1.3x of its parent, but the total drift is not.
        self.commit(bench([row("a", 1.0), row("b", 0.5)]))
        self.commit(bench([row("a", 1.2), row("b", 0.5)]))
        self.commit(bench([row("a", 1.25), row("b", 0.5)]))
        done = self.run_tool(bench([row("a", 1.5), row("b", 0.5)]))
        self.assertEqual(done.returncode, 1, done.stdout)
        self.assertIn("REGRESSION [demo] model=a", done.stdout)
        self.assertIn(f"best at {self.commits[0][:10]}", done.stdout)
        self.assertNotIn("REGRESSION [demo] model=b", done.stdout)
        # The same file passes the parent-only comparison.
        parent = os.path.join(self.tmp.name, "parent")
        os.makedirs(parent)
        with open(os.path.join(parent, "BENCH_demo.json"), "w") as f:
            json.dump(bench([row("a", 1.25), row("b", 0.5)]), f)
        plain = subprocess.run(
            [sys.executable, TOOL, "--baseline-dir", parent,
             "--current-dir", self.current, "--benches", "demo",
             "--threshold", "1.3"], capture_output=True, text=True)
        self.assertEqual(plain.returncode, 0, plain.stdout)

    def test_within_threshold_of_best_passes(self):
        self.commit(bench([row("a", 1.0, extract_sec=0.4)]))
        self.commit(bench([row("a", 2.0, extract_sec=0.9)]))
        done = self.run_tool(bench([row("a", 1.2, extract_sec=0.5)]))
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("RESULT: OK", done.stdout)

    def test_each_field_gates_against_its_own_best(self):
        # time_sec is best at the newest point, extract_sec at the oldest.
        self.commit(bench([row("a", 2.0, extract_sec=0.2)]))
        self.commit(bench([row("a", 1.0, extract_sec=0.8)]))
        done = self.run_tool(bench([row("a", 1.0, extract_sec=0.8)]))
        self.assertEqual(done.returncode, 1, done.stdout)
        self.assertIn("[extract_sec] (best at", done.stdout)
        self.assertNotIn("REGRESSION [demo] model=a (best", done.stdout)

    def test_uncommitted_and_dropped_rows(self):
        # Only committed points count, and the row set is the newest
        # committed one: a row dropped since then is not required.
        self.commit(bench([row("a", 1.0), row("gone", 1.0)]))
        self.commit(bench([row("a", 1.0)]))
        with open(os.path.join(self.repo, "BENCH_demo.json"), "w") as f:
            json.dump(bench([row("a", 0.1)]), f)  # never committed
        done = self.run_tool(bench([row("a", 1.1)]))
        self.assertEqual(done.returncode, 0, done.stdout)
        # A row of the newest point missing from the result fails.
        done = self.run_tool(bench([row("other", 1.0)]))
        self.assertEqual(done.returncode, 1, done.stdout)
        self.assertIn("MISSING ROW [demo] model=a", done.stdout)

    def test_no_history_fails(self):
        self.commit(bench([row("a", 1.0)]))
        done = subprocess.run(
            [sys.executable, TOOL, "--against-best",
             "--current-dir", self.current, "--benches", "absent"],
            cwd=self.repo, capture_output=True, text=True)
        self.assertEqual(done.returncode, 1, done.stdout)
        self.assertIn("NO BASELINE for absent", done.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: bench_diff_test.py <path to bench_diff.py>")
    TOOL = os.path.abspath(sys.argv.pop(1))
    unittest.main()
