"""Self-test of the benchmark itself (standard library unittest).

    python3 bench/selftest.py

A one-pass run of every workload, untraced and traced, must report every
metric BENCHMARK.json names, with its unit, and no failed operation.  A
corrupted reference value, and an operation cap too short for the work,
must each count failed operations, so the correctness gate is not vacuous.
Takes about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

from checkout import BENCH_DIR, use_checkout_src

ROOT = os.path.dirname(BENCH_DIR)


def bench_run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, cwd=ROOT)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsReported(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in spec[kind]})
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class GateIsNotVacuous(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        use_checkout_src()
        import workloads
        cls.wl = workloads

    def failures_with(self, corrupt, name="pool-0"):
        """Failures of one verify-pool job after ``corrupt(reference)``."""
        refs = self.wl.read_references()
        corrupt(refs["verify-pool"][name])
        inst = next(i for i in self.wl.setup("verify-pool", 0, refs) if i.name == name)
        tally = self.wl.Tally()
        self.wl.run_pass([inst], tally)
        self.assertEqual(tally.attempted, len(inst.steps))
        return tally.failures

    def test_intact_reference_passes(self):
        self.assertEqual(self.failures_with(lambda ref: None), [])

    def test_wrong_value_fails(self):
        def corrupt(ref):
            ref["value"] = ref["value"] + "1"
        failures = self.failures_with(corrupt)
        self.assertTrue(failures)
        self.assertIn("solve: wrong output", failures[0])

    def test_wrong_mc_float_fails(self):
        def corrupt(ref):
            ref["mc"][0][0] = ref["mc"][0][0] + 1e-12
        self.assertEqual(len(self.failures_with(corrupt)), 1)

    def test_wrong_hash_fails_the_whole_job(self):
        def corrupt(ref):
            ref["hash"] = "0" * 64
        failures = self.failures_with(corrupt)
        self.assertIn("load: wrong output", failures[0])
        self.assertTrue(all("skipped" in f for f in failures[1:]))

    def test_overrun_counts_as_timeout(self):
        cap = self.wl.OP_CAP_S
        self.wl.OP_CAP_S = 1e-4
        try:
            failures = self.failures_with(lambda ref: None)
        finally:
            self.wl.OP_CAP_S = cap
        self.assertTrue(any(f.endswith(": timeout") for f in failures), failures)


if __name__ == "__main__":
    unittest.main()
