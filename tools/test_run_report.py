#!/usr/bin/env python3
"""Unit tests for tools/run_report.py (run by ctest as `run_report_py`).

Covers the schema versions `check` accepts, the v3 self-time bounds, the
--max-unattributed floor, the `show` ordering and its `unattributed` row,
and that `diff` matches a v2 report against a v3 report of the same run.

    python3 tools/test_run_report.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "run_report.py")


def phase(name, calls, total_ns, self_ns):
    return {
        "name": name, "calls": calls, "total_ns": total_ns,
        "self_ns": self_ns, "max_ns": total_ns,
        "latency_ns": {"count": calls, "min": 1, "max": total_ns,
                       "mean": total_ns / calls, "p50": 1, "p90": 1,
                       "p99": 1},
        "histogram": [[0, total_ns, calls]],
        "by_size": [{"size_lo": 0, "size_hi": 0, "calls": calls,
                     "total_ns": total_ns, "max_ns": total_ns,
                     "mean_size": 0}],
    }


def v3_report():
    """A minimal, valid v3 report of a 1 s run: event dispatch contains
    driver dispatch, which contains the OCAS grant loop."""
    pct = {"p50": 1.0, "p90": 2.0, "p99": 3.0, "max": 4.0}
    return {
        "schema": "cosched.run_report", "version": 3,
        "scheduler": "coscheduler", "seed": 42,
        "config": {"jobs": 10, "racks": 4},
        "wall_time_sec": 1.0, "rss_high_water_bytes": 1 << 20,
        "metrics": {
            "makespan_sec": 100.5, "avg_jct_sec": 20.25,
            "avg_cct_sec": 3.5, "avg_jct_heavy_sec": 30.0,
            "avg_jct_light_sec": 10.0, "avg_cct_heavy_sec": 5.0,
            "avg_cct_light_sec": 1.0, "jct_percentiles": pct,
            "cct_percentiles": pct, "jain_fairness": 0.9,
            "ocs_traffic_fraction": 0.8, "ocs_gb": 8.0, "eps_gb": 2.0,
            "local_gb": 1.0, "jobs": 10, "events_executed": 1234,
            "dispatch_waves": 56,
        },
        "faults": {"stragglers": 0, "maps_killed": 0, "reduces_killed": 0,
                   "ocs_outages": 0, "flows_evicted": 0,
                   "ocs_downtime_sec": 0},
        "counters": {},
        "phases": [
            phase("sim.event_dispatch", 100, 900_000_000, 200_000_000),
            phase("driver.dispatch", 50, 700_000_000, 100_000_000),
            phase("ocas.grant", 40, 600_000_000, 600_000_000),
        ],
    }


def v2_report():
    """The same run as a v2 exporter wrote it: a flat profile section and
    no self time."""
    doc = copy.deepcopy(v3_report())
    doc["version"] = 2
    doc["profile"] = [{"section": "driver.dispatch", "calls": 50,
                       "total_ns": 700_000_000, "max_ns": 1}]
    for p in doc["phases"]:
        del p["self_ns"]
    return doc


class RunReportTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_tool(self, *args):
        return subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True, check=False)

    def check(self, doc):
        return self.run_tool("check", self.write("r.json", doc))

    def test_check_accepts_versions_1_to_3(self):
        self.assertEqual(self.check(v3_report()).returncode, 0)
        self.assertEqual(self.check(v2_report()).returncode, 0)
        v1 = v2_report()
        v1["version"] = 1
        del v1["metrics"]["dispatch_waves"]
        self.assertEqual(self.check(v1).returncode, 0)
        v4 = v3_report()
        v4["version"] = 4
        self.assertEqual(self.check(v4).returncode, 1)

    def test_profile_is_required_only_below_v3(self):
        v2 = v2_report()
        del v2["profile"]
        res = self.check(v2)
        self.assertEqual(res.returncode, 1)
        self.assertIn("profile", res.stderr)
        v3 = v3_report()
        del v3["phases"][0]["self_ns"]
        res = self.check(v3)
        self.assertEqual(res.returncode, 1)
        self.assertIn("self_ns", res.stderr)

    def test_check_fails_when_self_exceeds_total(self):
        doc = v3_report()
        doc["phases"][2]["self_ns"] = doc["phases"][2]["total_ns"] + 1
        res = self.check(doc)
        self.assertEqual(res.returncode, 1)
        self.assertIn("ocas.grant: self_ns", res.stderr)

    def test_check_fails_when_summed_self_exceeds_wall(self):
        doc = v3_report()
        doc["wall_time_sec"] = 0.85  # summed self time is 0.9 s
        res = self.check(doc)
        self.assertEqual(res.returncode, 1)
        self.assertIn("exceeds wall_time_sec", res.stderr)
        doc["wall_time_sec"] = 0.9  # equal is fine
        self.assertEqual(self.check(doc).returncode, 0)

    def test_max_unattributed_floor(self):
        path = self.write("r.json", v3_report())  # 10% unattributed
        res = self.run_tool("check", path, "--max-unattributed=0.10")
        self.assertEqual(res.returncode, 0, res.stderr)
        res = self.run_tool("check", path, "--max-unattributed=0.05")
        self.assertEqual(res.returncode, 1)
        self.assertIn("unattributed time is 10.0% of wall", res.stderr)
        # The default (0) is off, however little the phases cover.
        doc = v3_report()
        doc["wall_time_sec"] = 10.0
        self.assertEqual(self.check(doc).returncode, 0)
        # A report without self time cannot satisfy the floor.
        res = self.run_tool("check", self.write("v2.json", v2_report()),
                            "--max-unattributed=0.5")
        self.assertEqual(res.returncode, 1)
        self.assertIn("needs per-phase self_ns", res.stderr)

    def test_show_sorts_by_self_time_and_prints_unattributed(self):
        res = self.run_tool("show", self.write("r.json", v3_report()))
        self.assertEqual(res.returncode, 0, res.stderr)
        lines = res.stdout.splitlines()
        order = [n for line in lines for n in
                 ("ocas.grant", "sim.event_dispatch", "driver.dispatch")
                 if line.strip().startswith(n)]
        self.assertEqual(order, ["ocas.grant", "sim.event_dispatch",
                                 "driver.dispatch"])
        unattributed = [l for l in lines if l.strip().startswith(
            "unattributed")]
        self.assertEqual(len(unattributed), 1)
        self.assertIn("100.00ms", unattributed[0])  # 1 s wall - 0.9 s self
        self.assertIn("10.0% of wall", unattributed[0])

    def test_diff_of_v2_against_v3_of_the_same_run_matches(self):
        a = self.write("v2.json", v2_report())
        b = self.write("v3.json", v3_report())
        res = self.run_tool("diff", a, b)
        self.assertEqual(res.returncode, 0, res.stdout)
        self.assertIn("MATCH", res.stdout)
        changed = v3_report()
        changed["metrics"]["avg_jct_sec"] += 0.5
        res = self.run_tool("diff", a, self.write("c.json", changed))
        self.assertEqual(res.returncode, 1)


if __name__ == "__main__":
    unittest.main()
