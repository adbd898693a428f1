"""Self-test of the benchmark at tiny sizes: python3 benchmarks/selftest.py

Checks that tracing does not change the program's output, that every span
lies inside its parent, that no self time is negative, that the traced
pass reports every per-layer metric, and that a wrong digest fails a pass.
"""

from __future__ import annotations

import dataclasses
import json
import unittest

from run import HERE, OUT, ROOT, WORKLOADS, Run

import layers

TINY = {
    "fig3-er": ("reproduce-fig3", "--n", "8", "16"),
    "lowerbound-cliquefam": ("lowerbound", "--m", "2", "3", "--trials", "3", "--policies", "feedback", "sweep"),
    "grid-single": ("run", "--graph", "grid:8,8", "--policy", "feedback"),
}
TINY_TRIALS = {"fig3-er": 400, "lowerbound-cliquefam": 12, "grid-single": 1}


def tiny_run(name: str, seed: int = 3) -> Run:
    run = Run(name, seed)
    run.workload = dataclasses.replace(WORKLOADS[name], command=TINY[name], trials=TINY_TRIALS[name])
    run.reference = None
    return run


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        OUT.mkdir(exist_ok=True)

    def passes(self, name):
        """Traced jobs-1 pass, then untraced passes at jobs 1 and the workload's jobs."""
        run = tiny_run(name)
        try:
            results = [run.execute(1, True), run.execute(1, False), run.execute(run.workload.jobs, False)]
        finally:
            run.remove_csv()
        self.assertEqual(run.failed, 0, run.log)
        return results

    def test_tracing_keeps_output_bytes(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                digests = {r.digest for r in self.passes(name)}
                self.assertEqual(len(digests), 1)

    def test_spans_nest_and_self_times_are_nonnegative(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                spans = self.passes(name)[0].spans
                self.assertEqual(layers.nesting_errors(spans), [])
                self.assertTrue(all(t >= 0 for t in layers.self_times(spans)))
                self.assertEqual([s.name for s in spans if s.parent < 0], ["cli.main"])

    def test_traced_pass_reports_every_layer_metric(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            declared = {m["name"] for m in json.load(f)["per_layer"]}
        computed_by_run = {"cli.pool_efficiency", "trace_overhead_ratio"}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = layers.layer_metrics(self.passes(name)[0].spans)
                self.assertEqual(set(metrics), declared - computed_by_run)
                self.assertEqual(metrics["verify.ok_ratio"], 1.0)
                self.assertGreater(metrics["engine.node_rounds"], 0)

    def test_wrong_digest_fails_the_pass(self):
        run = tiny_run("lowerbound-cliquefam")
        run.reference = "0" * 64
        try:
            self.assertIsNone(run.execute(1, False))
        finally:
            run.remove_csv()
        self.assertEqual(run.failed, run.attempted)

    def test_pins_cover_every_workload(self):
        with open(HERE / "pins.json", encoding="utf-8") as f:
            self.assertEqual(set(json.load(f)), set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
