#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench_sim like run.py does, then checks that the timing wrapper
and the tracing change no simulated result, that the traced run's wall time
splits exactly into scheduler calls plus the rest, that BENCHMARK.json and
manifest.json agree, and that the benchmark refuses to run without the
simulator's sources.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(wl, jobs):
    return dict(wl, jobs=jobs)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_wrapped_runs_are_bit_identical_on_every_workload(self):
        for name, wl in run.MANIFEST["workloads"].items():
            seed = run.repetition_seeds(run.MANIFEST["seeds"]["default"], wl)[0]
            with self.subTest(workload=name):
                r = run.simulate("selftest", wl, seed)
                self.assertNotIn("aborted", r)
                self.assertTrue(r["identical"], r["first_difference"])
                self.assertEqual(r["jobs"], wl["jobs"])

    def test_traced_run_matches_audited_run_and_splits_its_time(self):
        wl = small(run.MANIFEST["workloads"]["cosched-256-faults"], 150)
        check = run.simulate("check", wl, 3)
        traced = run.simulate("traced", wl, 3)
        self.assertIsNone(run.verify(check, None, wl))
        self.assertIsNone(run.verify(traced, check, wl))
        tally = run.Tally()
        detail = {}
        m = run.per_layer(wl, [3], {3: check}, tally, detail)
        self.assertEqual(tally.failures, [])
        sched = sum(m[k] for k in ("sched.submit_s", "sched.plan_s",
                                   "sched.pick_s", "sched.hook_s"))
        self.assertAlmostEqual(sched + m["sim.rest_s"], m["trace.run_s"],
                               places=12)
        self.assertGreater(m["fabric.ocs_flows"], 0)
        self.assertGreater(m["net.eps_flows"], 0)
        self.assertGreater(m["replay.bytes_coverage.ocs"], 0.999)
        self.assertGreater(m["faults.tasks_killed"], 0)
        for metric in SPEC["per_layer"]:
            self.assertIn(metric["name"], m)

    def test_mismatch_and_unfinished_jobs_are_failures(self):
        wl = {"jobs": 2}
        ref = {"unfinished_jobs": 0, "jobs": 2,
               **{k: 1 for k in run.IDENTITY_KEYS if k != "jobs"}}
        self.assertIsNone(run.verify(dict(ref), ref, wl))
        self.assertIn("differs", run.verify(dict(ref, events=2), ref, wl))
        self.assertIn("unfinished",
                      run.verify(dict(ref, unfinished_jobs=1), ref, wl))
        self.assertEqual(run.verify({"aborted": "x"}, ref, wl), "x")

    def test_refuses_to_time_a_non_release_build(self):
        with self.assertRaises(run.BenchError):
            run.require_release({"ndebug": False, "build_type": "Debug"})
        with self.assertRaises(run.BenchError):
            run.require_release({"ndebug": True,
                                 "build_type": "RelWithDebInfo"})
        run.require_release({"ndebug": True, "build_type": "Release"})


class SpecTest(unittest.TestCase):
    def test_workloads_match_the_manifest(self):
        self.assertEqual({w["name"]: w["why"] for w in SPEC["workloads"]},
                         {k: v["why"] for k, v in
                          run.MANIFEST["workloads"].items()})

    def test_layer_table_names_only_listed_metrics(self):
        listed = {m["name"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
        self.assertEqual(len(listed),
                         len(SPEC["per_layer"]) + len(SPEC["end_to_end"]))
        for row in run.MANIFEST["layers"]:
            for name in row["metrics"]:
                self.assertIn(name, listed)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        scratch = run.ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cosched-60", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
