#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/test_counts.py [workload ...]

Makes two traced runs of each workload (default: both) and asserts that
every count metric is identical between them, then checks the layer facts
the benchmark is built around: instrumentation is the largest set-up layer
of hot-campaign, hot-campaign never falls back to the interpreter, in
daemon-study only the VL 16 cell shapes do, and every warm-pass cell of
daemon-study hits the engine cache.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["hot-campaign", "daemon-study"]
# Counts that must repeat exactly between two traced runs.
EXACT = [
    "vulfi.instrumented_sites", "vulfi.faulty_runs", "vulfi.dynamic_sites",
    "jit.native_runs", "jit.fallback_runs", "jit.fallback_runs.vl8",
    "jit.fallback_runs.vl16", "serve.cache_hits",
    "serve.cache_misses", "serve.cache_entries", "serve.records",
    "study.new_experiments", "study.cells_from_store",
    "support.journal_records", "vulfi.summary_records",
]
SETUP_LAYERS = ["kernels.build_ms", "ir.clone_spec_ms", "ir.verify_ms",
                "vulfi.prune_plan_ms", "jit.compile_ms", "vulfi.golden_ms"]
WARM_PASSES, STUDY_CELLS = 3, 8


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s: run.py exited %d" % (workload,
                                                       proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result


class TracedCounts(unittest.TestCase):
    workloads = WORKLOADS

    def test_counts_repeat_and_layer_facts(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first, result = traced_run(workload, 7)
                second, _ = traced_run(workload, 7)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name in EXACT:
                    self.assertEqual(first[name], second[name], name)
                self.assertIn("trace.overhead_s", first)
                self.check_facts(workload, first)

    def check_facts(self, workload, m):
        self.assertGreater(m["vulfi.instrumented_sites"], 0)
        if workload == "hot-campaign":
            for layer in SETUP_LAYERS:
                self.assertGreater(m["vulfi.instrument_ms"], m[layer], layer)
            self.assertEqual(m["jit.fallback_runs"], 0)
            self.assertGreater(m["vulfi.faulty_runs"], 0)
            self.assertEqual(m["serve.cache_hits"], 0)
        if workload == "daemon-study":
            self.assertEqual(m["jit.fallback_runs.vl8"], 0)
            self.assertGreater(m["jit.fallback_runs.vl16"], 0)
            self.assertEqual(m["jit.fallback_runs"],
                             m["jit.fallback_runs.vl16"])
            self.assertGreater(m["interp.fallback_clean_us"],
                               m["vulfi.clean_run_us"])
            self.assertEqual(m["serve.cache_hits"], WARM_PASSES * STUDY_CELLS)
            self.assertEqual(m["serve.cache_misses"], STUDY_CELLS)
            self.assertEqual(m["study.cells_from_store"], STUDY_CELLS)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        TracedCounts.workloads = sys.argv[1:]
    unittest.main(argv=sys.argv[:1])
