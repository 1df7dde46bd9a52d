#!/usr/bin/env python3
"""End-to-end tests of cosabench: every metric of BENCHMARK.json is
emitted with its unit, a corrupted result byte fails the run, and one
seed gives the same request bodies and the same schedule-quality values
twice.

    python3 cosabench/tests/test_cosabench.py

Each benchmark run here uses a 2 s window; the whole file takes a few
minutes.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "cosabench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# mixed-tiers is not in BENCHMARK.json (README.md says why) but stays a
# runnable workload, so it is tested like the others.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["mixed-tiers"]
SEED = 11

_runs = {}


def bench(workload, seed, trace, *extra, repeat=0):
    """Run the benchmark (once per distinct arguments and @p repeat);
    returns (exit code, result line or None, stdout)."""
    key = (workload, seed, trace, extra, repeat)
    if key not in _runs:
        proc = subprocess.run(
            ["python3", RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", "2", "--trace", str(trace)] + list(extra),
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        _runs[key] = (proc.returncode, result, proc.stdout)
    return _runs[key]


class MetricsTest(unittest.TestCase):
    def check_metrics(self, trace, spec):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, result, _ = bench(workload, SEED, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in spec}
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics_are_emitted_with_units(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_are_emitted_with_units(self):
        self.check_metrics(1, SPEC["per_layer"])


class CorrectnessTest(unittest.TestCase):
    def test_corrupted_result_byte_fails_the_run(self):
        code, result, _ = bench("cold-solve", SEED, 0,
                                "--corrupt-result-byte")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class DeterminismTest(unittest.TestCase):
    def dump(self, workload, seed):
        proc = subprocess.run(
            ["python3", RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0", "--dump-requests", "40"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        return proc.stdout

    def test_one_seed_gives_identical_request_bodies(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.dump(workload, SEED)
                self.assertEqual(first, self.dump(workload, SEED))
                self.assertNotEqual(first, self.dump(workload, SEED + 1))

    def test_one_seed_gives_identical_schedule_quality(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, _ = bench(workload, SEED, 0)
                _, again, _ = bench(workload, SEED, 0, repeat=1)
                for name in ("sched_cycles_geomean",
                             "sched_energy_geomean_pj"):
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"])


if __name__ == "__main__":
    unittest.main()
