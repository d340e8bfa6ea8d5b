#!/usr/bin/env python3
"""Tests of the repository benchmark itself (smoke mode, metric contract,
correctness gate). Run from anywhere:

    python3 perfbench/tests/test_perfbench.py

Each case runs perfbench/run.py in smoke mode (tiny inputs, about a
second of work), so the whole file takes well under a minute once the
benchmark is built.
"""
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The descriptive end-to-end names each workload prints in its report.
NAMED = {
    "solve-mesh": ["solve_meps"],
    "solve-skewed": ["solve_meps"],
    "serve-zipf": ["serve_light_p50_ms", "serve_light_p99_ms", "serve_heavy_p50_ms",
                   "serve_heavy_p99_ms", "serve_goodput_rps"],
    "churn-window": ["churn_updates_per_s", "churn_batch_p50_ms", "churn_batch_p99_ms"],
}


def run(workload, trace, *extra, root=ROOT):
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


def report_value(stdout, name):
    match = re.search(rf"^  {re.escape(name)} +(\S+) (\S+)$", stdout, re.MULTILINE)
    return (float(match.group(1)), match.group(2)) if match else None


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_of(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[section]}
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertTrue(metric["unit"])
                    self.assertIsNotNone(report_value(proc.stdout, "fail_frac"))
                    for name in NAMED[workload]:
                        self.assertIsNotNone(report_value(proc.stdout, name), name)
                    if trace:
                        self.assertIn("layer self time", proc.stdout)
                        self.assertLessEqual(result["metrics"]["obs.span_overrun_frac"]["value"], 0.02)
                        path = re.search(r"^chrome trace: (.+)$", proc.stdout, re.MULTILINE).group(1)
                        events = json.loads(Path(path).read_text())["traceEvents"]
                        self.assertTrue(events)
                        self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_header_describes_the_run(self):
        proc = run("serve-zipf", 0)
        header = "\n".join(l for l in proc.stdout.split("\n") if l.startswith("#"))
        for key in ("nproc=", "cpu=", "build_type=Release", "sanitizer=none",
                    "graftmatch_trace_compiled=", "graftmatch_trace_armed=", "seed=1",
                    "size_factor=", "init=ks", "deadline_ms="):
            self.assertIn(key, header)


class GateTest(unittest.TestCase):
    def test_wrong_answers_fail_the_run(self):
        for workload, fault in (("solve-mesh", "solve-drop-edge"),
                                ("serve-zipf", "serve-off-by-one"),
                                ("churn-window", "churn-off-by-one")):
            with self.subTest(fault=fault):
                proc = run(workload, 0, "--inject", fault)
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
                self.assertGreater(report_value(proc.stdout, "fail_frac")[0], 0.0)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("solve-mesh", 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip().startswith("{"))


if __name__ == "__main__":
    unittest.main()
