// perfbench_sim: one simulation of one benchmark workload, as one process.
//
//   perfbench_sim --mode timed|check|traced|selftest --sched NAME
//                 --racks N --jobs N --fabric SPEC --faults SPEC --seed N
//
// The workload is the paper's setting (60 racks x 10 servers, 10:1 EPS
// oversubscription, 100 Gb/s OCS, delta = 10 ms, 20 users) with the arrival
// window scaled to the job count, so every size keeps the paper's offered
// load. --seed makes the inputs: the same seed gives the same jobs, the same
// simulator RNG streams and the same fault draws.
//
// Modes (each prints one JSON object on stdout):
//   timed    — the plain scheduler, auditor off, no tracing: host set-up and
//              run time, peak RSS, and the simulated results.
//   check    — the same run with the invariant auditor on, untimed; its
//              simulated results must equal the timed run's bit for bit.
//   traced   — the scheduler wrapped in TimedScheduler and tracing on
//              (decision log and counter sampling off), then the run's flow
//              stream replayed through a fresh network (net_replay.h).
//   selftest — a plain run and a wrapped run of the same inputs, compared
//              JobRecord for JobRecord plus events and dispatch waves.
//
// Exit codes: 0 ok (the JSON says whether the run aborted), 2 bad usage or
// refusing to time a non-release build.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "metrics/metrics.h"
#include "net_replay.h"
#include "obs/observability.h"
#include "sim/driver.h"
#include "sim/experiment.h"
#include "timed_scheduler.h"
#include "workload/generator.h"

#include <sys/resource.h>

using namespace cosched;
using perfbench::TimedScheduler;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string mode;
  std::string sched;
  std::int32_t racks = 60;
  std::int32_t jobs = 1000;
  std::string fabric = "ocs:1";
  std::string faults;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_sim: %s\nusage: perfbench_sim --mode "
               "timed|check|traced|selftest --sched NAME --racks N --jobs N "
               "--fabric SPEC --faults SPEC --seed N\n",
               why.c_str());
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || x < 0) usage("bad " + flag + ": " + v);
  return x;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    if (flag == "--mode") {
      o.mode = v;
    } else if (flag == "--sched") {
      o.sched = v;
    } else if (flag == "--racks") {
      o.racks = static_cast<std::int32_t>(parse_int(flag, v));
    } else if (flag == "--jobs") {
      o.jobs = static_cast<std::int32_t>(parse_int(flag, v));
    } else if (flag == "--fabric") {
      o.fabric = v;
    } else if (flag == "--faults") {
      o.faults = v;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_int(flag, v));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.mode != "timed" && o.mode != "check" && o.mode != "traced" &&
      o.mode != "selftest") {
    usage("bad --mode: " + o.mode);
  }
  if (o.sched.empty()) usage("--sched is required");
  if (o.racks <= 0 || o.jobs <= 0) usage("--racks and --jobs must be > 0");
  return o;
}

/// The workload's configuration, mirroring the figure benches' paper
/// setting: topology defaults, 20 users, arrival window 90 min per 1000 jobs.
struct Setting {
  SimConfig sim;
  WorkloadConfig workload;
};

Setting make_setting(const Options& o) {
  Setting s;
  s.sim.topo = HybridTopology{};
  s.sim.topo.num_racks = o.racks;
  std::string error;
  const auto fabric = FabricSpec::parse(o.fabric, &error);
  if (!fabric) usage("bad --fabric: " + error);
  s.sim.fabric = *fabric;
  const auto plan = FaultPlan::parse(o.faults, &error);
  if (!plan) usage("bad --faults: " + error);
  s.sim.faults = *plan;
  s.sim.seed = o.seed;
  s.sim.audit = false;
  s.workload.num_jobs = o.jobs;
  s.workload.num_users = 20;
  s.workload.arrival_window = Duration::minutes(90.0 * o.jobs / 1000.0);
  return s;
}

std::vector<JobSpec> make_jobs(const Setting& s, std::uint64_t seed) {
  Rng rng = Rng(seed).fork(1);
  return generate_workload(s.workload, rng);
}

// ---------------------------------------------------------------------------
// Simulated results.

/// Highest of the usual percentiles with at least ten jobs beyond its
/// nearest-rank value: fixed by the job count alone.
double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 50.0;
}

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// FNV-1a over every JobRecord field, so two runs' records compare by one
/// number. Doubles hash by bit pattern.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string job_digest(const RunMetrics& m) {
  Digest d;
  for (const JobRecord& j : m.jobs) {
    d.add(static_cast<std::uint64_t>(j.id.value()));
    d.add(static_cast<std::uint64_t>(j.user.value()));
    d.add(static_cast<std::uint64_t>(j.shuffle_heavy) |
          static_cast<std::uint64_t>(j.has_shuffle) << 1 |
          static_cast<std::uint64_t>(j.all_flows_ocs) << 2);
    d.add(j.arrival.sec());
    d.add(j.completion.sec());
    d.add(j.jct.sec());
    d.add(j.cct.sec());
    d.add(static_cast<std::uint64_t>(j.shuffle_bytes.in_bytes()));
    d.add(static_cast<std::uint64_t>(j.map_output_bytes.in_bytes()));
    d.add(j.last_map_completion.sec());
    d.add(j.first_reduce_placement.sec());
    d.add(j.cct_lower_bound.sec());
  }
  d.add(m.makespan.sec());
  d.add(static_cast<std::uint64_t>(m.ocs_bytes.in_bytes()));
  d.add(static_cast<std::uint64_t>(m.eps_bytes.in_bytes()));
  d.add(static_cast<std::uint64_t>(m.local_bytes.in_bytes()));
  return d.hex();
}

/// Minimal JSON object writer: keys in insertion order, doubles with all
/// 17 significant digits.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& num(const std::string& k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' ? ' ' : c);
    }
    return raw(k, q + "\"");
  }
  Json& flag(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& raw(const std::string& k, const std::string& v) {
    os_ << (first_ ? "{" : ", ") << "\"" << k << "\": " << v;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string done() const { return os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

void add_build(Json& j) {
  j.str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef __clang__
  j.str("compiler", std::string("clang ") + __VERSION__);
#else
  j.str("compiler", std::string("gcc ") + __VERSION__);
#endif
#ifdef NDEBUG
  j.flag("ndebug", true);
#else
  j.flag("ndebug", false);
#endif
}

void add_sim_results(Json& j, const RunMetrics& m, std::int32_t expected_jobs) {
  std::vector<double> jct;
  std::vector<double> cct;
  std::int64_t unfinished =
      static_cast<std::int64_t>(expected_jobs) -
      static_cast<std::int64_t>(m.jobs.size());
  for (const JobRecord& r : m.jobs) {
    if (!(r.completion >= r.arrival) || r.completion.sec() <= 0.0) {
      ++unfinished;
    }
    jct.push_back(r.jct.sec());
    if (r.has_shuffle) cct.push_back(r.cct.sec());
  }
  const double tail_pct = tail_percentile(jct.size());
  j.num("sim_avg_jct_s", m.avg_jct_sec())
      .num("sim_jct_p50_s", nearest_rank(jct, 50.0))
      .num("sim_jct_tail_s", nearest_rank(jct, tail_pct))
      .num("sim_jct_tail_pct", tail_pct)
      .num("sim_avg_jct_heavy_s", m.avg_jct_sec(true))
      .num("sim_avg_cct_s", m.avg_cct_sec())
      .num("sim_cct_p50_s", nearest_rank(cct, 50.0))
      .num("sim_makespan_s", m.makespan.sec())
      .num("jobs", static_cast<std::int64_t>(m.jobs.size()))
      .num("unfinished_jobs", unfinished)
      .str("job_digest", job_digest(m))
      .num("events", static_cast<std::int64_t>(m.events_executed))
      .num("dispatch_waves", static_cast<std::int64_t>(m.dispatch_waves))
      .num("eps_bytes", m.eps_bytes.in_bytes())
      .num("ocs_bytes", m.ocs_bytes.in_bytes())
      .num("tasks_killed", m.faults.tasks_killed())
      .num("stragglers", m.faults.stragglers)
      .num("flows_evicted", m.faults.flows_evicted);
}

/// Peak resident set of this process in MB (Linux reports ru_maxrss in KB;
/// it is the VmHWM of /proc/self/status).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Modes.

/// Set-up is short next to the run, so a timed process sets up this many
/// times and reports the median; the last set-up is the one that runs.
constexpr int kSetupRepeats = 5;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

std::string run_timed(const Options& o) {
  const Setting s = make_setting(o);
  COSCHED_CHECK_MSG(!s.sim.audit, "timed runs must run with the auditor off");
  const auto factory = make_scheduler_factory(o.sched);
  std::vector<double> generate_s;
  std::vector<double> construct_s;
  std::vector<double> setup_s;
  std::unique_ptr<SimulationDriver> driver;
  for (int i = 0; i < kSetupRepeats; ++i) {
    driver.reset();
    const auto t0 = Clock::now();
    std::vector<JobSpec> jobs = make_jobs(s, o.seed);
    generate_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    driver = std::make_unique<SimulationDriver>(s.sim, std::move(jobs),
                                                factory());
    construct_s.push_back(seconds_since(t1));
    setup_s.push_back(generate_s.back() + construct_s.back());
  }
  const auto t2 = Clock::now();
  const RunMetrics m = driver->run();
  const double run_s = seconds_since(t2);
  Json j;
  j.num("setup_s", median(setup_s))
      .num("generate_s", median(generate_s))
      .num("construct_s", median(construct_s))
      .num("run_s", run_s)
      .num("peak_rss_mb", peak_rss_mb());
  add_sim_results(j, m, o.jobs);
  add_build(j);
  return j.done();
}

std::string run_check(const Options& o) {
  Setting s = make_setting(o);
  s.sim.audit = true;
  SimulationDriver driver(s.sim, make_jobs(s, o.seed),
                          make_scheduler_factory(o.sched)());
  const RunMetrics m = driver.run();
  Json j;
  add_sim_results(j, m, o.jobs);
  add_build(j);
  return j.done();
}

std::string run_traced(const Options& o) {
  Setting s = make_setting(o);
  Observability obs;  // trace on
  obs.decisions.enable(false);
  obs.counters.set_interval(Duration::zero());  // no sampling events
  s.sim.obs = &obs;
  const auto factory = make_scheduler_factory(o.sched);
  auto wrapped = std::make_unique<TimedScheduler>(factory());
  TimedScheduler* timer = wrapped.get();
  SimulationDriver driver(s.sim, make_jobs(s, o.seed), std::move(wrapped));
  const auto t0 = Clock::now();
  const RunMetrics m = driver.run();
  const double run_s = seconds_since(t0);

  const auto& trace = obs.trace.events();
  std::int64_t circuit_setups = 0;
  for (const TraceEvent& ev : trace) {
    if (ev.kind == TraceEventKind::kCircuitSetup) ++circuit_setups;
  }
  const perfbench::ReplayResult eps =
      perfbench::replay_eps(trace, s.sim.topo, s.sim.fabric);
  const perfbench::ReplayResult fab =
      perfbench::replay_fabric(trace, s.sim.topo, s.sim.fabric, s.sim.faults);
  Json j;
  j.num("run_s", run_s)
      .num("sched.submit_s", timer->submit.total_s())
      .num("sched.submit_calls", static_cast<std::int64_t>(timer->submit.calls))
      .num("sched.plan_s", timer->plan.total_s())
      .num("sched.plan_calls", static_cast<std::int64_t>(timer->plan.calls))
      .num("sched.plan_p50_us", timer->plan.percentile_us(50.0))
      .num("sched.plan_p99_us", timer->plan.percentile_us(99.0))
      .num("sched.pick_s", timer->pick.total_s())
      .num("sched.pick_calls", static_cast<std::int64_t>(timer->pick.calls))
      .num("sched.pick_p50_us", timer->pick.percentile_us(50.0))
      .num("sched.pick_p99_us", timer->pick.percentile_us(99.0))
      .num("sched.grants", static_cast<std::int64_t>(timer->grants))
      .num("sched.hook_s", timer->hook.total_s())
      .num("sched.hook_calls", static_cast<std::int64_t>(timer->hook.calls))
      .num("sim.active_jobs_max",
           static_cast<std::int64_t>(timer->active_jobs_max))
      .num("trace.circuit_setups", circuit_setups)
      .num("net.eps_flows", eps.flows)
      .num("net.eps_replay_s", eps.wall_s)
      .num("net.eps_replans", eps.replans)
      .flag("net.eps_drained", eps.drained)
      .num("fabric.ocs_flows", fab.flows)
      .num("fabric.replay_s", fab.wall_s)
      .flag("fabric.drained", fab.drained)
      .num("net.eps_replay_bytes", eps.bytes)
      .num("fabric.replay_bytes", fab.bytes);
  add_sim_results(j, m, o.jobs);
  add_build(j);
  return j.done();
}

/// The first JobRecord field two runs disagree on, or "" when identical.
std::string compare_runs(const RunMetrics& a, const RunMetrics& b) {
  if (a.jobs.size() != b.jobs.size()) return "job count";
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobRecord& x = a.jobs[i];
    const JobRecord& y = b.jobs[i];
    const bool same =
        x.id == y.id && x.user == y.user &&
        x.shuffle_heavy == y.shuffle_heavy && x.has_shuffle == y.has_shuffle &&
        x.arrival == y.arrival && x.completion == y.completion &&
        x.jct == y.jct && x.cct == y.cct &&
        x.shuffle_bytes == y.shuffle_bytes &&
        x.map_output_bytes == y.map_output_bytes &&
        x.last_map_completion == y.last_map_completion &&
        x.first_reduce_placement == y.first_reduce_placement &&
        x.cct_lower_bound == y.cct_lower_bound &&
        x.all_flows_ocs == y.all_flows_ocs;
    if (!same) return "job record " + std::to_string(i);
  }
  if (a.events_executed != b.events_executed) return "events_executed";
  if (a.dispatch_waves != b.dispatch_waves) return "dispatch_waves";
  if (a.makespan != b.makespan) return "makespan";
  return {};
}

std::string run_selftest(const Options& o) {
  const Setting s = make_setting(o);
  const auto factory = make_scheduler_factory(o.sched);
  SimulationDriver plain(s.sim, make_jobs(s, o.seed), factory());
  const RunMetrics a = plain.run();
  SimulationDriver wrapped(s.sim, make_jobs(s, o.seed),
                           std::make_unique<TimedScheduler>(factory()));
  const RunMetrics b = wrapped.run();
  const std::string diff = compare_runs(a, b);
  Json j;
  j.flag("identical", diff.empty()).str("first_difference", diff);
  j.num("jobs", static_cast<std::int64_t>(a.jobs.size()))
      .num("events", static_cast<std::int64_t>(a.events_executed))
      .num("dispatch_waves", static_cast<std::int64_t>(a.dispatch_waves));
  return j.done();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
#ifndef NDEBUG
  if (o.mode == "timed" || o.mode == "traced") {
    std::fprintf(stderr,
                 "perfbench_sim: refusing to time a build without NDEBUG "
                 "(build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
#endif
  std::string out;
  try {
    if (o.mode == "timed") {
      out = run_timed(o);
    } else if (o.mode == "check") {
      out = run_check(o);
    } else if (o.mode == "traced") {
      out = run_traced(o);
    } else {
      out = run_selftest(o);
    }
  } catch (const std::exception& e) {
    // CheckFailure / AuditFailure: the run aborted; report, don't crash.
    out = Json().str("aborted", e.what()).done();
  }
  std::printf("%s\n", out.c_str());
  return 0;
}
