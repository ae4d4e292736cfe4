"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the checker flags doctored outputs, that the tracer reports a missing
boundary as absent, and that run.py refuses to run without papc sources.
Takes about a minute; writes only under ``.bench_run/selftest``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = run.ROOT / ".bench_run" / "selftest"


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


class MetricsTest(unittest.TestCase):
    """Each workload at tiny sizes: one untraced and one traced repetition."""

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(OUT, ignore_errors=True)
        cls.summaries = {
            name: run.measure(name, 3, 0, 1, sizes=workloads.TINY_SIZES[name],
                              out_root=OUT)
            for name in workloads.NAMES}

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.NAMES))

    def test_every_metric_emitted_with_its_unit(self):
        for name, summary in self.summaries.items():
            for trace, expected in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    line = run.final_line(dict(summary, trace=trace))
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, _units(expected))
                    for metric in line["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertTrue(math.isfinite(metric["value"]))

    def test_outputs_pass_their_checks(self):
        for name, summary in self.summaries.items():
            with self.subTest(workload=name):
                self.assertEqual(summary["failed"], 0, summary["failures"])
                self.assertGreater(summary["attempted"], 0)
                self.assertEqual(summary["samples"], {"untraced": 1, "traced": 1})
                for metric in ("wall_s", "setup_s", "steps_per_s", "peak_rss_mb"):
                    self.assertGreater(summary["end_to_end"][metric], 0)

    def test_layers_seen_where_expected(self):
        layers = {n: s["per_layer"] for n, s in self.summaries.items()}
        self.assertGreater(layers["lasso-seeds"]["runner.self_s"], 0)
        self.assertGreater(layers["lasso-seeds"]["stochastic.sample_us"], 0)
        self.assertGreater(layers["multi-composite"]["composite.step_us"], 0)
        self.assertGreater(layers["multi-composite"]["zoo.oracle_s"], 0)
        self.assertIsNone(layers["fused-wide"]["runner.self_s"])
        self.assertGreater(layers["fused-wide"]["linop.dense_bytes_per_step"], 0)
        for name, per_layer in layers.items():
            with self.subTest(workload=name):
                self.assertEqual(per_layer["stochastic.samples"], per_layer["solver.steps"])
                self.assertGreater(per_layer["linop.power_iters"], 0)


class CheckerTest(unittest.TestCase):
    """The checker flags doctored outputs."""

    def setUp(self):
        self.dir = OUT / "doctored"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.spec = workloads.make_spec("lasso-seeds", 4, {"dim": 5, "seeds": 2,
                                                           "horizon": 10},
                                        str(self.dir), False, 0)
        (self.dir / "out").mkdir()
        self.summary = {"seeds": {str(s): {"status": "ok", "terminal_dist_x": 1e-4}
                                  for s in self.spec["seeds"]}}
        for s in self.spec["seeds"]:
            (self.dir / "out" / ("seed_%d_trace.csv" % s)).write_text("n\n0\n")

    def _check(self, exit_code=0):
        (self.dir / "out" / "summary.json").write_text(json.dumps(self.summary))
        return workloads.check(self.spec, exit_code, {})

    def test_clean_output_passes(self):
        outcomes, hashes = self._check()
        self.assertEqual(set(outcomes.values()), {None})
        self.assertEqual(set(hashes), set(self.spec["seeds"]))

    def test_diverged_seed_fails(self):
        bad = self.spec["seeds"][1]
        self.summary["seeds"][str(bad)]["status"] = "diverged"
        outcomes, _ = self._check(exit_code=1)
        self.assertIsNotNone(outcomes[bad])

    def test_wrong_distance_fails(self):
        bad = self.spec["seeds"][0]
        self.summary["seeds"][str(bad)]["terminal_dist_x"] = 0.5
        outcomes, _ = self._check()
        self.assertIn("terminal_dist_x", outcomes[bad])
        self.assertIsNone(outcomes[self.spec["seeds"][1]])

    def test_missing_seed_fails(self):
        bad = self.spec["seeds"][0]
        del self.summary["seeds"][str(bad)]
        outcomes, _ = self._check()
        self.assertEqual(outcomes[bad], "no summary entry")

    def test_changed_trace_hash_fails(self):
        reference = {}
        first = {"outcomes": {7: None}, "hashes": {7: "aa"}}
        again = {"outcomes": {7: None}, "hashes": {7: "bb"}}
        run.flag_changed_hashes(reference, first)
        run.flag_changed_hashes(reference, again)
        self.assertIsNone(first["outcomes"][7])
        self.assertIn("hash", again["outcomes"][7])

    def test_fused_checks(self):
        spec = {"workload": "fused-wide", "seeds": [0]}
        good = {"finite": True, "kkt": [1e-7, 1e-4], "hash": "x"}
        self.assertIsNone(workloads.check(spec, 0, good)[0][0])
        self.assertIsNotNone(workloads.check(spec, 0, dict(good, kkt=[1e-7, 1e-2]))[0][0])
        self.assertIsNotNone(workloads.check(spec, 0, dict(good, finite=False))[0][0])
        self.assertIsNotNone(workloads.check(spec, 1, {"error": "diverged"})[0][0])


class TracerTest(unittest.TestCase):

    def test_missing_boundary_is_absent_and_restore_undoes(self):
        import numpy as np
        import papc.cli  # noqa: F401
        from papc import solver, zoo
        from papc.stochastic import DeterministicOracle

        original = solver.papc_step
        tracer = tracing.Tracer(0, boundaries=("solver.run", "solver.papc_step",
                                               "composite.no_such_step", "nomodule.f"))
        try:
            self.assertEqual(tracer.absent, ["composite.no_such_step", "nomodule.f"])
            self.assertIsNot(solver.papc_step, original)
            inst = zoo.build_instance("lasso", {"dim": "3"})
            solver.run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                       np.zeros(3), np.zeros(3), 5)
        finally:
            tracer.restore()
        self.assertIs(solver.papc_step, original)
        self.assertIs(solver.run.__defaults__[-1], original)
        metrics = tracing.analyse(tracer)
        self.assertEqual(metrics["solver.steps"], 5)
        self.assertEqual(len(tracer), 6)
        self.assertIsNone(metrics["composite.step_us"])


class BareDirectoryTest(unittest.TestCase):

    def test_refuses_without_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lasso-seeds", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
