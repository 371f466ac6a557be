// Experiment harness: repeated simulation runs over freshly generated
// workloads, aggregated per scheduler — the machinery behind every figure
// reproduction in bench/.
//
// Each repetition r uses an independently forked RNG stream for workload
// generation and seed base_seed + r for the simulation, so schedulers are
// compared on identical workloads within a repetition (paired comparison,
// as in the paper's normalized plots).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "sched/scheduler.h"
#include "sim/driver.h"
#include "workload/generator.h"

namespace cosched {

using SchedulerFactory = std::function<std::unique_ptr<JobScheduler>()>;

struct ExperimentConfig {
  SimConfig sim;
  WorkloadConfig workload;
  std::int32_t repetitions = 5;
  std::uint64_t base_seed = 42;
};

/// How to shard independent run_once calls across worker threads.
///
/// Determinism contract: results are bit-for-bit identical to the serial
/// path for any thread count. Each (scheduler, repetition) run derives its
/// RNG streams purely from (base_seed, rep), writes into a pre-sized slot,
/// and aggregation happens on the calling thread in the serial order — so
/// only wall clock depends on `threads` (guarded by ctest -L determinism).
struct ParallelExperimentConfig {
  /// 1 = serial on the calling thread (today's behavior, the default);
  /// 0 = one worker per hardware thread; N > 1 = N workers.
  std::int32_t threads = 1;
  /// Observability sinks (cfg.sim.obs) are single-run recorders, so the
  /// parallel path thread-confines them: only this repetition — of the
  /// first scheduler, for compare_schedulers — keeps the obs pointer, all
  /// other runs record nothing. The serial path attaches obs to every run,
  /// as before.
  std::int32_t observed_repetition = 0;
};

/// Build one of the standard schedulers by name: "fair", "corral",
/// "coscheduler", "mts+ocas", "ocas". Throws on unknown names.
[[nodiscard]] SchedulerFactory make_scheduler_factory(const std::string& name);

/// The driver for a single repetition of `factory`'s scheduler on the
/// workload of repetition `rep`, built but not yet run.
[[nodiscard]] std::unique_ptr<SimulationDriver> make_driver(
    const ExperimentConfig& cfg, const SchedulerFactory& factory,
    std::int32_t rep);

/// One run: make_driver(cfg, factory, rep), run to completion.
[[nodiscard]] RunMetrics run_once(const ExperimentConfig& cfg,
                                  const SchedulerFactory& factory,
                                  std::int32_t rep);

/// All repetitions for one scheduler, as raw per-repetition results in
/// repetition order (the granularity the determinism suite compares).
[[nodiscard]] std::vector<RunMetrics> run_repetitions(
    const ExperimentConfig& cfg, const SchedulerFactory& factory,
    const ParallelExperimentConfig& par = {});

/// All repetitions for one scheduler, aggregated.
[[nodiscard]] AggregateMetrics run_experiment(
    const ExperimentConfig& cfg, const SchedulerFactory& factory,
    const ParallelExperimentConfig& par = {});

/// Paired comparison across schedulers (same workloads per repetition).
/// With par.threads != 1, all (scheduler, repetition) pairs shard across
/// one worker pool; aggregation order matches the serial path exactly.
[[nodiscard]] std::vector<AggregateMetrics> compare_schedulers(
    const ExperimentConfig& cfg, const std::vector<std::string>& names,
    const ParallelExperimentConfig& par = {});

}  // namespace cosched
