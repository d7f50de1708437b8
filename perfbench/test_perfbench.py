#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny workload sizes.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark program the same way run.py does, then checks that every
workload emits every metric BENCHMARK.json names (timed and traced), that
no op percentile is printed without ten samples beyond it, and that
sim_digest repeats across runs.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

PERCENTILES = {"op_p50_ms": 0.50, "op_p90_ms": 0.90, "op_p99_ms": 0.99}
# A percentile line: value, then at least ten samples beyond it.
PRINTED = r"{} +[0-9.]+ ms \((\d\d+) samples beyond; not a metric\)"


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        if cls.exe is None:
            raise RuntimeError("benchmark build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def program_output(self, workload, seed, *extra):
        proc = subprocess.run(
            [self.exe, "--workload", workload, "--seed", str(seed),
             "--scale", "tiny", *extra],
            stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return proc.stdout

    def program(self, workload, seed, *extra):
        return last_json(self.program_output(workload, seed, *extra))

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--scale", "tiny"],
                        cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                        timeout=300)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    res = last_json(proc.stdout)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed",
                                   "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertLessEqual(res["failed"], res["attempted"])
                    names = {m["name"] for m in self.spec[key]}
                    self.assertEqual(set(res["metrics"]), names)
                    for name, m in res["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_percentile_needs_ten_samples_beyond(self):
        # Op percentiles are printed beside the metrics with their sample
        # counts, never among them. One fig6_grid rep is 198 ops: p90 has
        # 19 samples beyond it, p99 only one, so p99 must be left out.
        out = self.program_output("fig6_grid", 3, "--reps", "1")
        res = last_json(out)
        self.assertEqual(res["op_samples"], 198)
        self.assertRegex(out, PRINTED.format("op_p50_ms"))
        self.assertRegex(out, PRINTED.format("op_p90_ms"))
        self.assertRegex(out, r"op_p99_ms +omitted: 1 samples beyond")

        # A timed run collects enough ops for every percentile.
        out = self.program_output("paper_point", 3, "--seconds", "1")
        res = last_json(out)
        for name, p in PERCENTILES.items():
            self.assertNotIn(name, res["metrics"])
            beyond = int(re.search(PRINTED.format(name), out).group(1))
            self.assertEqual(
                beyond,
                res["op_samples"] - math.ceil(p * res["op_samples"]))

    def test_registry_points_probed_apart(self):
        # multicore_mix probes the known barrier panic with the four 2-core
        # registry points. Each reports ok or a KNOWN DEFECT line with its
        # repro; the probe has counts of its own and adds nothing to the
        # workload's ops or failures.
        proc = subprocess.run(
            [self.exe, "--workload", "multicore_mix", "--seed", "3",
             "--scale", "tiny", "--reps", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        res = last_json(proc.stdout)
        self.assertEqual(res["ops"], res["op_samples"])
        self.assertEqual(res["ops_failed"], 0)
        self.assertEqual(res["known_defect_probes"], 4)
        lines = proc.stdout.splitlines()
        panics = 0
        for name in ("kv_wal", "fs_journal", "pstore", "zipf_mix"):
            ok = f"registry point {name}: ok" in proc.stdout
            fail = [l for l in lines if l.startswith(
                f"KNOWN DEFECT: registry point {name} ")]
            self.assertNotEqual(ok, bool(fail), name)
            if fail:
                self.assertIn("repro: --workload multicore_mix", fail[0])
            panics += len(fail)
        self.assertEqual(res["known_defect_panics"], panics)
        self.assertGreater(panics, 0)
        self.assertIn(f"known defect probe: {panics} of 4 registry points "
                      "panicked", proc.stdout)

    def test_sim_digest_repeats(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.program(workload, 5, "--reps", "2")
                b = self.program(workload, 5, "--reps", "2")
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(a["sim_digest"], b["sim_digest"])
                other = self.program(workload, 6, "--reps", "1")
                self.assertNotEqual(a["sim_digest"], other["sim_digest"])


if __name__ == "__main__":
    unittest.main()
