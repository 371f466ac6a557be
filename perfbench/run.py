#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer cost of the cosched simulator.

    python3 perfbench/run.py --workload cosched-60 --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py                # every workload, default seed

One run builds perfbench_sim (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench on first use, then for the chosen workload:

  1. check  — simulates each of the workload's repetitions once with the
     invariant auditor on (untimed, three processes at a time). Every job must
     finish and nothing may abort.
  2. --trace 0: times repetitions one process at a time, auditor off, no
     tracing, round-robin for --seconds, and reports every end_to_end
     metric of BENCHMARK.json.
     --trace 1: one untraced and one traced pass over the repetitions; the
     traced pass wraps the scheduler in TimedScheduler and replays the flow
     stream through a fresh network (net_replay.h). Reports every per_layer
     metric of BENCHMARK.json.
  3. Every timed and traced repetition must reproduce its audited run's
     simulated results bit for bit (JobRecord digest, events, dispatch waves,
     sim_* values). A mismatch, abort or unfinished job is a failed run.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
failed_run_share is failed / attempted. Any failure exits 1 after printing
it. Full results, with the build's provenance, go to
.bench_build/perfbench-results/. Workloads, seeds and the layer table are in
perfbench/manifest.json.
"""
import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "perfbench-results"
HARNESS = BUILD_DIR / "perfbench_sim"
MANIFEST = json.loads((HERE / "manifest.json").read_text())
CHECK_WORKERS = 3
SIM_TIMEOUT_S = 170

# Simulated results every run of one repetition must agree on bit for bit.
SIM_KEYS = ["sim_avg_jct_s", "sim_jct_p50_s", "sim_jct_tail_s",
            "sim_avg_jct_heavy_s", "sim_avg_cct_s", "sim_cct_p50_s",
            "sim_makespan_s"]
IDENTITY_KEYS = SIM_KEYS + ["job_digest", "events", "dispatch_waves",
                            "eps_bytes", "ocs_bytes", "jobs"]


class BenchError(Exception):
    """A run that cannot produce a result at all (exit 2, no result line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources at {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = [cmake, "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", str(BUILD_DIR), "--target", "perfbench_sim",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def simulate(mode, wl, seed):
    """One perfbench_sim process; its JSON result, or {"aborted": why}."""
    cmd = [str(HARNESS), "--mode", mode, "--sched", wl["sched"],
           "--racks", str(wl["racks"]), "--jobs", str(wl["jobs"]),
           "--fabric", wl["fabric"], "--faults", wl["faults"],
           "--seed", str(seed)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=SIM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"aborted": f"{mode} seed {seed}: timed out"}
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"aborted": f"{mode} seed {seed}: exit {p.returncode}: "
                           f"{p.stderr.strip()[-400:]}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"aborted": f"{mode} seed {seed}: unreadable result "
                           f"{lines[-1][:200]!r}"}


def verify(result, ref, wl):
    """Why `result` is not a correct run (None when it is)."""
    if "aborted" in result:
        return result["aborted"]
    if result["unfinished_jobs"] != 0 or result["jobs"] != wl["jobs"]:
        return (f"{result['unfinished_jobs']} unfinished of "
                f"{wl['jobs']} jobs")
    if ref is not None and "aborted" not in ref:
        for key in IDENTITY_KEYS:
            if result[key] != ref[key]:
                return (f"{key} {result[key]!r} differs from the audited "
                        f"run's {ref[key]!r}")
    return None


class Tally:
    """attempted/failed over every simulation the run makes."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, what, why):
        self.attempted += 1
        if why is not None:
            self.failures.append(f"{what}: {why}")
            log(f"FAILED {what}: {why}")


def repetition_seeds(seed, wl):
    reps = wl["repetitions"]
    if not 1 <= reps <= 16:
        raise BenchError("repetitions must be in 1..16")
    return [16 * seed + i for i in range(reps)]


def check_pass(wl, seeds, tally):
    with ThreadPoolExecutor(CHECK_WORKERS) as pool:
        checks = dict(zip(seeds, pool.map(lambda s: simulate("check", wl, s),
                                          seeds)))
    for s in seeds:
        tally.add(f"check seed {s}", verify(checks[s], None, wl))
    return checks


def require_release(result):
    if "aborted" in result:
        return
    if not result.get("ndebug") or result.get("build_type") != "Release":
        raise BenchError(
            f"refusing to time a {result.get('build_type')} build "
            f"(NDEBUG {'on' if result.get('ndebug') else 'off'})")


def timed_pass(mode, wl, seeds, checks, tally):
    out = {}
    for s in seeds:
        r = simulate(mode, wl, s)
        require_release(r)
        tally.add(f"{mode} seed {s}", verify(r, checks[s], wl))
        out[s] = r
    return out


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs)


def ratio(num, den):
    return num / den if den else 0.0


def coverage(replayed, run):
    """Replayed ÷ run bytes on one path; 1 when the run sent none."""
    return replayed / run if run else 1.0


def end_to_end(wl, seeds, checks, seconds, tally, detail):
    """Times repetitions round-robin until `seconds` have passed (every
    repetition at least once)."""
    samples = {s: [] for s in seeds}
    start = time.monotonic()
    for i in itertools.count():
        s = seeds[i % len(seeds)]
        if i >= len(seeds) and time.monotonic() - start >= seconds:
            break
        r = timed_pass("timed", wl, [s], checks, tally)[s]
        if "aborted" not in r:
            samples[s].append(r)
    good = [s for s in seeds if samples[s]]
    if not good:
        return {}
    per_rep = lambda key: mean(statistics.median(r[key] for r in samples[s])
                               for s in good)
    setups = [r["setup_s"] for s in good for r in samples[s]]
    metrics = {
        "run_s": per_rep("run_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": per_rep("peak_rss_mb"),
    }
    for key in SIM_KEYS:
        metrics[key] = mean(checks[s][key] for s in good)
    detail["timed_samples"] = {str(s): [{k: r[k] for k in
                                         ("run_s", "setup_s", "peak_rss_mb")}
                                        for r in samples[s]] for s in seeds}
    detail["sim_jct_tail_pct"] = checks[good[0]]["sim_jct_tail_pct"]
    detail["run_s_samples"] = sum(len(v) for v in samples.values())
    detail["measured_s"] = time.monotonic() - start
    return metrics


def per_layer(wl, seeds, checks, tally, detail):
    plain = timed_pass("timed", wl, seeds, checks, tally)
    traced = timed_pass("traced", wl, seeds, checks, tally)
    good = [s for s in seeds
            if "aborted" not in plain[s] and "aborted" not in traced[s]]
    if not good:
        return {}
    p = [plain[s] for s in good]
    t = [traced[s] for s in good]
    total = lambda rows, key: sum(r[key] for r in rows)
    avg = lambda key: mean(r[key] for r in t)

    flags = []
    for s in good:
        for path, replayed, run in (
                ("eps", "net.eps_replay_bytes", "eps_bytes"),
                ("ocs", "fabric.replay_bytes", "ocs_bytes")):
            cov = coverage(traced[s][replayed], traced[s][run])
            if cov < 1.0 - 1e-9:
                flags.append(f"seed {s}: replay carried {cov:.6f} of the run's "
                             f"{path} bytes (demand added in flight is not "
                             f"traced)")
        for key in ("net.eps_drained", "fabric.drained"):
            if not traced[s][key]:
                flags.append(f"seed {s}: {key} is false")
    detail["flags"] = flags
    detail["traced"] = {str(s): traced[s] for s in good}
    for f in flags:
        log(f"FLAG {f}")

    sched_s = ["sched.submit_s", "sched.plan_s", "sched.pick_s",
               "sched.hook_s"]
    m = {
        "workload.generate_s": statistics.median(r["generate_s"] for r in p),
        "workload.construct_s": statistics.median(r["construct_s"] for r in p),
        "sched.submit_s": avg("sched.submit_s"),
        "sched.submit_calls": avg("sched.submit_calls"),
        "sched.plan_s": avg("sched.plan_s"),
        "sched.plan_calls": avg("sched.plan_calls"),
        "sched.plan_p50_us": avg("sched.plan_p50_us"),
        "sched.plan_p99_us": avg("sched.plan_p99_us"),
        "sched.pick_s": avg("sched.pick_s"),
        "sched.pick_calls": avg("sched.pick_calls"),
        "sched.pick_p50_us": avg("sched.pick_p50_us"),
        "sched.pick_p99_us": avg("sched.pick_p99_us"),
        "sched.grant_ratio": ratio(total(t, "sched.grants"),
                                   total(t, "sched.pick_calls")),
        "sched.hook_s": avg("sched.hook_s"),
        "sched.hook_calls": avg("sched.hook_calls"),
        "sim.dispatch_waves": avg("dispatch_waves"),
        "sim.offers_per_wave": ratio(total(t, "sched.pick_calls"),
                                     total(t, "dispatch_waves")),
        "sim.active_jobs_max": max(r["sim.active_jobs_max"] for r in t),
        "simcore.events": avg("events"),
        "simcore.ns_per_event": 1e9 * ratio(total(p, "run_s"),
                                            total(p, "events")),
        "net.eps_flows": avg("net.eps_flows"),
        "net.eps_replay_s": avg("net.eps_replay_s"),
        "net.eps_replans": avg("net.eps_replans"),
        "net.eps_us_per_replan": 1e6 * ratio(total(t, "net.eps_replay_s"),
                                             total(t, "net.eps_replans")),
        "fabric.ocs_flows": avg("fabric.ocs_flows"),
        "fabric.replay_s": avg("fabric.replay_s"),
        "fabric.us_per_flow": 1e6 * ratio(total(t, "fabric.replay_s"),
                                          total(t, "fabric.ocs_flows")),
        "fabric.circuit_setups": avg("trace.circuit_setups"),
        "fabric.ocs_share": ratio(
            total(t, "ocs_bytes"),
            total(t, "ocs_bytes") + total(t, "eps_bytes")),
        "fabric.evicted_flows": avg("flows_evicted"),
        "faults.tasks_killed": avg("tasks_killed"),
        "faults.stragglers": avg("stragglers"),
        "replay.bytes_coverage.eps": coverage(total(t, "net.eps_replay_bytes"),
                                              total(t, "eps_bytes")),
        "replay.bytes_coverage.ocs": coverage(total(t, "fabric.replay_bytes"),
                                              total(t, "ocs_bytes")),
        "coflow.avg_cct_s": avg("sim_avg_cct_s"),
        "trace.run_s": avg("run_s"),
        "trace.overhead": ratio(total(t, "run_s"), total(p, "run_s")) - 1.0,
    }
    # The traced run's wall time, split: scheduler calls + everything else.
    m["sim.rest_s"] = m["trace.run_s"] - sum(m[k] for k in sched_s)
    return m


def git_commit():
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def source_sha256():
    """Hash of the simulator and benchmark sources, for checkouts without
    git history."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = MANIFEST["workloads"].get(name)
    if wl is None:
        raise BenchError(f"unknown workload {name!r}; have "
                         f"{', '.join(MANIFEST['workloads'])}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    build()
    seeds = repetition_seeds(seed, wl)
    tally = Tally()
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "repetition_seeds": seeds, "config": wl}
    checks = check_pass(wl, seeds, tally)
    if trace:
        values = per_layer(wl, seeds, checks, tally, detail)
    else:
        values = end_to_end(wl, seeds, checks, seconds, tally, detail)

    build_info = next((r for r in checks.values() if "aborted" not in r), {})
    detail["provenance"] = {
        "build_type": build_info.get("build_type"),
        "compiler": build_info.get("compiler"),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    metrics = {}
    if not tally.failures:
        for m in listed:
            if m["name"] not in values:
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    detail["failures"] = tally.failures
    detail["failed_run_share"] = ratio(len(tally.failures), tally.attempted)
    detail["result"] = result
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    for k, v in detail["provenance"].items():
        print(f"# {k}: {v}")
    print(f"# {name} seed {seed}: repetitions {seeds}, "
          f"failed_run_share {detail['failed_run_share']:.4g} "
          f"({len(tally.failures)}/{tally.attempted})")
    for m in listed:
        if m["name"] in metrics:
            extra = ""
            if m["name"] == "sim_jct_tail_s":
                extra = f"  (p{detail['sim_jct_tail_pct']:g})"
            print(f"#   {m['name']:28s} {metrics[m['name']]['value']:.6g} "
                  f"{m['unit']}{extra}")
    print(f"# details: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=MANIFEST["seeds"]["default"])
    ap.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    names = [args.workload] if args.workload else list(MANIFEST["workloads"])
    ok = True
    try:
        for name in names:
            ok &= run_workload(name, args.seed, args.seconds,
                               args.trace)["correct"]
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
