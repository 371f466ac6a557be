// Microbenchmarks for the scheduler decision engine: end-to-end dispatch
// cost of whole runs under the product Co-scheduler vs the test-side
// ReferenceCoScheduler (tests/oracles/), one SBS exploration pass under
// both explore implementations, OCAS re-offers after a grant, and
// BestRackHeap churn. The paired *Reference benchmarks run in the same binary, so their
// ratio is immune to machine-speed differences (the same trick as
// bench_micro_net's EPS replan pair); tools/bench_engine.py extracts it
// into BENCH_engine.json.
//
// Baseline generation: COSCHED_SCHED_BENCH_FORCE_REFERENCE=1 makes the
// incrementally-named run benchmarks execute the reference engine instead,
// which is how results/bench_sched_before.json was produced — an honest
// "before" with matching benchmark names, from the same binary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "oracles/reference_coscheduler.h"
#include "sched/best_rack_heap.h"
#include "sched/coscheduler.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

/// Whether COSCHED_SCHED_BENCH_FORCE_REFERENCE asks the incrementally-named
/// benchmarks to run the reference engine.
bool forced_reference() {
  const char* force = std::getenv("COSCHED_SCHED_BENCH_FORCE_REFERENCE");
  return force != nullptr && *force != '\0' && *force != '0';
}

SchedulerFactory coscheduler_factory(bool reference) {
  return reference ? make_reference_scheduler_factory("coscheduler")
                   : make_scheduler_factory("coscheduler");
}

ExperimentConfig dispatch_config(std::int32_t jobs) {
  ExperimentConfig cfg;
  cfg.sim.topo = HybridTopology{};  // paper defaults: 60 racks
  cfg.workload.num_jobs = jobs;
  cfg.workload.num_users = 20;
  cfg.workload.arrival_window = Duration::minutes(90.0 * jobs / 1000.0);
  cfg.repetitions = 1;
  cfg.base_seed = 42;
  cfg.sim.audit = false;
  return cfg;
}

// One full coscheduler run per iteration: dominated by dispatch at this
// load (ocas.grant + sbs.explore were ~90% of wall at 10k jobs), so the
// end-to-end time is an honest proxy for scheduler-engine cost.
void BM_SchedDispatchRun(benchmark::State& state) {
  const ExperimentConfig cfg =
      dispatch_config(static_cast<std::int32_t>(state.range(0)));
  const SchedulerFactory factory = coscheduler_factory(forced_reference());
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(cfg, factory, 0).events_executed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedDispatchRun)
    ->Arg(200)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_SchedDispatchRunReference(benchmark::State& state) {
  const ExperimentConfig cfg =
      dispatch_config(static_cast<std::int32_t>(state.range(0)));
  const SchedulerFactory factory = coscheduler_factory(/*reference=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(cfg, factory, 0).events_executed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedDispatchRunReference)
    ->Arg(200)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// ---- SBS exploration: one pass over every PSRT candidate. ---------------

/// Deterministic oracle with the driver's real per-query cost profile:
/// SimulationDriver::estimate_availability walks every running task on the
/// rack, estimates its remaining time, and nth_elements the result — the
/// expensive part the incremental engine's memoization avoids repeating.
/// A busy paper-scale rack runs ~200 tasks; emulate that work per call.
class DriverCostAvailability : public AvailabilityOracle {
 public:
  explicit DriverCostAvailability(std::int32_t num_racks)
      : num_racks_(num_racks) {}

  Duration estimate_availability(RackId rack, std::int64_t count) override {
    constexpr std::int64_t kRunning = 200;  // paper: 200 containers/rack
    remaining_.clear();
    for (std::int64_t t = 0; t < kRunning; ++t) {
      remaining_.push_back(static_cast<double>(
          (rack.value() * 131 + t * 37) % 1009));
    }
    const std::int64_t need = std::min(count, kRunning);
    std::nth_element(remaining_.begin(), remaining_.begin() + (need - 1),
                     remaining_.end());
    return Duration::seconds(
        remaining_[static_cast<std::size_t>(need - 1)] /
        static_cast<double>(num_racks_));
  }

 private:
  std::int32_t num_racks_;
  std::vector<double> remaining_;
};

std::vector<PossibleSchedule> wide_candidate_set() {
  // A large shuffle on 4 map racks: many R_red candidates, overlapping
  // counts — the shape that makes per-candidate full scans expensive.
  const auto te = DataSize::gigabytes(1.125);
  const std::vector<DataSize> sm{te * 20.0, te * 15.0, te * 10.0, te * 5.0};
  return possible_reduce_schedules(
      sm, 40, te,
      legacy_cct_bound(Bandwidth::gbps(100), Duration::milliseconds(10)), 60);
}

void BM_SbsExplorePass(benchmark::State& state) {
  const auto schedules = wide_candidate_set();
  DriverCostAvailability oracle(60);
  const bool reference = forced_reference();
  for (auto _ : state) {
    auto explored =
        reference
            ? explore_schedules(schedules, 60, oracle)
            : explore_schedules_incremental(schedules, 60, oracle, false);
    benchmark::DoNotOptimize(explored.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(schedules.size()));
}
BENCHMARK(BM_SbsExplorePass);

void BM_SbsExplorePassReference(benchmark::State& state) {
  const auto schedules = wide_candidate_set();
  DriverCostAvailability oracle(60);
  for (auto _ : state) {
    auto explored = explore_schedules(schedules, 60, oracle);
    benchmark::DoNotOptimize(explored.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(schedules.size()));
}
BENCHMARK(BM_SbsExplorePassReference);

// ---- OCAS: the re-offers of a dispatch wave after one grant. ------------

class NoWaitAvailability : public AvailabilityOracle {
 public:
  Duration estimate_availability(RackId, std::int64_t) override {
    return Duration::zero();
  }
};

// 40 guided shuffle-heavy jobs of 10 users, each with pending maps local
// only to its 4 guideline racks (among racks 0-7), which all keep free
// containers, so racks 8 and up decline. One iteration grants rack 0 a map
// and re-offers racks 8 and up, as a wave does after a grant. The grant is
// then killed and requeued untimed, and those racks re-offered once so
// each starts the next iteration having declined.
void BM_OcasWaveAfterGrant(benchmark::State& state) {
  HybridTopology topo;
  topo.num_racks = static_cast<std::int32_t>(state.range(0));
  topo.servers_per_rack = 2;
  topo.slots_per_server = 4;
  Cluster cluster(topo);
  IdAllocator<TaskId> task_ids;
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<Job*> active;
  NoWaitAvailability oracle;
  Rng rng(3);
  SchedContext ctx{SimTime::zero(), topo, cluster, active, oracle, rng};
  CoScheduler sched(CoScheduler::Options{.enable_reduce_planning = false});
  constexpr std::int32_t kMaps = 64;
  for (std::int64_t j = 0; j < 40; ++j) {
    JobSpec spec;
    spec.id = JobId{j};
    spec.user = UserId{j % 10};
    spec.num_maps = kMaps;
    spec.num_reduces = 4;
    spec.input_size = DataSize::gigabytes(200);
    spec.sir = 1.0;
    spec.map_durations.assign(kMaps, Duration::seconds(10));
    spec.reduce_durations.assign(4, Duration::seconds(10));
    jobs.push_back(std::make_unique<Job>(spec, topo.elephant_threshold,
                                         task_ids, CoflowId{j}));
    Job& job = *jobs.back();
    active.push_back(&job);
    sched.on_job_submitted(job, ctx);
    std::vector<RackId> guideline;
    for (std::int64_t g = 0; g < 4; ++g) guideline.push_back(RackId{(j + g) % 8});
    std::vector<BlockReplicas> blocks(kMaps);
    for (std::int32_t b = 0; b < kMaps; ++b) {
      blocks[static_cast<std::size_t>(b)].racks = {
          guideline[static_cast<std::size_t>(b % 4)]};
    }
    job.set_block_placement(std::move(blocks));
    job.set_r_map_guideline(4);
    job.set_guideline_map_racks(std::move(guideline));
  }
  const auto offer_others = [&] {
    for (std::int32_t r = 8; r < topo.num_racks; ++r) {
      benchmark::DoNotOptimize(sched.pick_task(RackId{r}, ctx));
    }
  };
  offer_others();
  for (auto _ : state) {
    const std::optional<TaskChoice> grant = sched.pick_task(RackId{0}, ctx);
    if (!grant.has_value()) {
      state.SkipWithError("rack 0 declined");
      break;
    }
    Job& job = *grant->job;
    Task& task = *grant->task;
    const NodeId node = cluster.allocate_slot(RackId{0});
    task.place(RackId{0}, node, SimTime::zero());
    job.note_map_placed(RackId{0});
    sched.on_task_placed(job, task, RackId{0});
    offer_others();

    state.PauseTiming();
    cluster.release_slot(RackId{0}, node);
    task.reset_for_retry();
    job.requeue_map(task.index());
    sched.on_task_requeued(job, task, RackId{0});
    offer_others();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * (topo.num_racks - 8));
}
BENCHMARK(BM_OcasWaveAfterGrant)->Arg(60)->Arg(256);

// ---- BestRackHeap: update + pop churn at paper scale. -------------------

void BM_BestRackHeapChurn(benchmark::State& state) {
  const std::int32_t racks = static_cast<std::int32_t>(state.range(0));
  BestRackHeap heap(racks);
  std::int64_t i = 0;
  for (auto _ : state) {
    heap.update(RackId{i % racks}, static_cast<double>((i * 31) % 997));
    if (i % 4 == 3) benchmark::DoNotOptimize(heap.pop_best().value());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BestRackHeapChurn)->Arg(60)->Arg(256);

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
