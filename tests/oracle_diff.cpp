// oracle_diff: one bench_scale-shaped run under a reference engine, written
// as a RunReport to diff against the product run.
//
//   bench_scale --jobs=1000 --report-out=a.json
//   oracle_diff --oracle=refsched --jobs=1000 --report-out=b.json
//   python3 tools/run_report.py diff a.json b.json
//
// run_report.py diff ignores wall-clock fields, so any difference is a real
// divergence between the product's fast path and its oracle. Modes:
//
//   refsched      the reference Co-scheduler (ReferenceCoScheduler) in
//                 place of the incremental one;
//   scan          the all-racks dispatch scan (ScanDispatchScheduler around
//                 the product scheduler), audited;
//   legacy-bound  the reference Co-scheduler charging the legacy ocs:1 T(C)
//                 over the topology's OCS link and delay, whatever the
//                 fabric — the fabric-oblivious planner.
//
// Every other flag is bench_scale's (bench/bench_util.h).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "metrics/run_report.h"
#include "obs/perf_monitor.h"
#include "oracles/reference_coscheduler.h"
#include "oracles/scan_dispatch.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

constexpr const char* kOracleFlag = "--oracle=";

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --oracle=refsched|scan|legacy-bound "
               "[bench_scale flags]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string oracle;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kOracleFlag, std::strlen(kOracleFlag)) == 0) {
      oracle = argv[i] + std::strlen(kOracleFlag);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (oracle != "refsched" && oracle != "scan" && oracle != "legacy-bound") {
    return usage(argv[0]);
  }
  const BenchArgs args =
      BenchArgs::parse(static_cast<int>(rest.size()), rest.data());
  ExperimentConfig cfg = paper_config(args);

  SchedulerFactory factory;
  try {
    if (oracle == "refsched") {
      factory = make_reference_scheduler_factory(args.sched);
    } else if (oracle == "scan") {
      factory = scan_dispatch_factory(make_scheduler_factory(args.sched));
      cfg.sim.audit = true;
    } else {
      factory = make_reference_scheduler_factory(
          args.sched, legacy_cct_bound(cfg.sim.topo.ocs_link,
                                       cfg.sim.topo.ocs_reconfig_delay));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--sched: %s\n", e.what());
    return 2;
  }

  std::printf("oracle_diff: %s under --oracle=%s on %s, %d jobs on %d racks\n",
              args.sched.c_str(), oracle.c_str(), args.fabric_spec.c_str(),
              args.jobs, cfg.sim.topo.num_racks);
  PerfMonitor::set_enabled(true);
  PerfMonitor::instance().reset();
  const auto wall_start = std::chrono::steady_clock::now();
  const RunMetrics run = run_once(cfg, factory, 0);
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
  std::printf("wall clock: %.2f s\n", wall_sec);

  if (!args.report_out.empty()) {
    RunReportMeta meta;
    meta.num_jobs = args.jobs;
    meta.num_racks = cfg.sim.topo.num_racks;
    meta.wall_time_sec = wall_sec;
    meta.rss_high_water_bytes = rss_high_water_bytes();
    std::ofstream os(args.report_out);
    if (!os) {
      std::fprintf(stderr, "cannot open --report-out=%s\n",
                   args.report_out.c_str());
      return 1;
    }
    const PerfSnapshot perf = PerfMonitor::instance().snapshot();
    write_run_report_json(os, run, meta, &perf);
    std::printf("wrote RunReport to %s\n", args.report_out.c_str());
  }
  return 0;
}
