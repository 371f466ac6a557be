#include "sim/experiment.h"

#include "common/check.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "sched/corral.h"
#include "sched/coscheduler.h"
#include "sched/delay.h"
#include "sched/fair.h"

namespace cosched {

SchedulerFactory make_scheduler_factory(const std::string& name) {
  if (name == "fair") {
    return [] { return std::make_unique<FairScheduler>(); };
  }
  if (name == "corral") {
    return [] { return std::make_unique<CorralScheduler>(); };
  }
  if (name == "delay") {
    return [] { return std::make_unique<DelayScheduler>(); };
  }
  if (name == "coscheduler") {
    return [] { return std::make_unique<CoScheduler>(); };
  }
  if (name == "mts+ocas") {
    return [] {
      CoScheduler::Options opts;
      opts.enable_reduce_planning = false;
      return std::make_unique<CoScheduler>(opts);
    };
  }
  if (name == "ocas") {
    return [] {
      CoScheduler::Options opts;
      opts.enable_mts = false;
      opts.enable_reduce_planning = false;
      return std::make_unique<CoScheduler>(opts);
    };
  }
  COSCHED_CHECK_MSG(false, "unknown scheduler: " << name);
  return {};
}

std::unique_ptr<SimulationDriver> make_driver(const ExperimentConfig& cfg,
                                              const SchedulerFactory& factory,
                                              std::int32_t rep) {
  Rng workload_rng =
      Rng(cfg.base_seed).fork(static_cast<std::uint64_t>(rep) + 1);
  std::vector<JobSpec> jobs = generate_workload(cfg.workload, workload_rng);

  SimConfig sim_cfg = cfg.sim;
  sim_cfg.seed = cfg.base_seed + static_cast<std::uint64_t>(rep) * 1000003ULL;
  return std::make_unique<SimulationDriver>(sim_cfg, std::move(jobs),
                                            factory());
}

RunMetrics run_once(const ExperimentConfig& cfg,
                    const SchedulerFactory& factory, std::int32_t rep) {
  return make_driver(cfg, factory, rep)->run();
}

namespace {

/// The per-run config for repetition `rep` under a parallel shard: every
/// run but the designated one drops the (single-consumer) obs bundle, so
/// recording stays confined to one thread.
ExperimentConfig confine_obs(const ExperimentConfig& cfg, std::int32_t rep,
                             bool designated_scheduler,
                             const ParallelExperimentConfig& par) {
  ExperimentConfig run_cfg = cfg;
  if (!designated_scheduler || rep != par.observed_repetition) {
    run_cfg.sim.obs = nullptr;
  }
  return run_cfg;
}

}  // namespace

std::vector<RunMetrics> run_repetitions(const ExperimentConfig& cfg,
                                        const SchedulerFactory& factory,
                                        const ParallelExperimentConfig& par) {
  COSCHED_CHECK(cfg.repetitions >= 1);
  const std::size_t reps = static_cast<std::size_t>(cfg.repetitions);
  std::vector<RunMetrics> slots(reps);
  if (par.threads == 1) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      slots[rep] = run_once(cfg, factory, static_cast<std::int32_t>(rep));
    }
    return slots;
  }
  ThreadPool pool(ThreadPool::resolve_threads(par.threads));
  parallel_for(&pool, reps, [&](std::size_t rep) {
    const auto r = static_cast<std::int32_t>(rep);
    slots[rep] = run_once(confine_obs(cfg, r, /*designated_scheduler=*/true,
                                      par),
                          factory, r);
  });
  return slots;
}

AggregateMetrics run_experiment(const ExperimentConfig& cfg,
                                const SchedulerFactory& factory,
                                const ParallelExperimentConfig& par) {
  AggregateMetrics agg;
  for (const RunMetrics& run : run_repetitions(cfg, factory, par)) {
    agg.add(run);
  }
  return agg;
}

std::vector<AggregateMetrics> compare_schedulers(
    const ExperimentConfig& cfg, const std::vector<std::string>& names,
    const ParallelExperimentConfig& par) {
  COSCHED_CHECK(cfg.repetitions >= 1);
  const std::size_t reps = static_cast<std::size_t>(cfg.repetitions);

  // Resolve every name up front so an unknown scheduler fails fast and
  // deterministically, before any simulation work starts.
  std::vector<SchedulerFactory> factories;
  factories.reserve(names.size());
  for (const std::string& name : names) {
    factories.push_back(make_scheduler_factory(name));
  }

  // Pre-sized slots indexed by (scheduler, repetition): workers only ever
  // write their own slot, and aggregation below runs on the calling thread
  // in the exact order of the serial path.
  std::vector<std::vector<RunMetrics>> slots(names.size());
  for (auto& s : slots) s.resize(reps);

  if (par.threads == 1) {
    for (std::size_t s = 0; s < names.size(); ++s) {
      for (std::size_t rep = 0; rep < reps; ++rep) {
        slots[s][rep] =
            run_once(cfg, factories[s], static_cast<std::int32_t>(rep));
      }
    }
  } else {
    ThreadPool pool(ThreadPool::resolve_threads(par.threads));
    parallel_for(&pool, names.size() * reps, [&](std::size_t i) {
      const std::size_t s = i / reps;
      const auto rep = static_cast<std::int32_t>(i % reps);
      slots[s][static_cast<std::size_t>(rep)] = run_once(
          confine_obs(cfg, rep, /*designated_scheduler=*/s == 0, par),
          factories[s], rep);
    });
  }

  std::vector<AggregateMetrics> out;
  out.reserve(names.size());
  for (std::size_t s = 0; s < names.size(); ++s) {
    AggregateMetrics agg;
    for (const RunMetrics& run : slots[s]) agg.add(run);
    out.push_back(std::move(agg));
  }
  return out;
}

}  // namespace cosched
