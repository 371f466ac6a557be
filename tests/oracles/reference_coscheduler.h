// The reference Co-scheduler: the plain per-event recompute the product's
// incremental engine (src/sched/coscheduler.*) must reproduce bit for bit.
//
//   * possible_reduce_schedules — PSRT over the full m x R_red traffic
//     matrix (the product evaluates a two-line surrogate instead);
//   * explore_schedules — SBS with one O(racks) availability scan per
//     (candidate, d_i) (the product memoizes and ranks once per count);
//   * ReferenceCoScheduler — OCAS as a fresh scan of every active job per
//     container offer, with no candidate index, no no-grant memo and no
//     global declines.
//
// Test-only: the equivalence suites, the fuzzer, the micro-benches and
// tests/oracle_diff link this through cosched_oracles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coflow/cct_bound.h"
#include "sched/coscheduler.h"
#include "sim/experiment.h"

namespace cosched {

/// PSRT: all possible schedules for a map-output distribution `sm`
/// (per-rack output sizes, each >= elephant_threshold, any order), each
/// candidate's T(C) being `bound` over its full abstract traffic matrix.
[[nodiscard]] std::vector<PossibleSchedule> possible_reduce_schedules(
    const std::vector<DataSize>& sm, std::int32_t num_reduces,
    DataSize elephant_threshold, const CctBoundFn& bound,
    std::int32_t max_racks);

/// SBS's ExploreSchedule over every PSRT candidate: for each, assign the
/// descending D to the earliest-available unselected racks by a full scan
/// per task count. Candidates with no feasible assignment are dropped.
[[nodiscard]] std::vector<ExploredSchedule> explore_schedules(
    const std::vector<PossibleSchedule>& schedules, std::int32_t num_racks,
    AvailabilityOracle& availability);

class ReferenceCoScheduler final : public CoScheduler {
 public:
  /// `bound` overrides the T(C) PSRT charges; empty means the product's
  /// choice (the fabric's placement_cost).
  explicit ReferenceCoScheduler(Options opts = {}, CctBoundFn bound = {})
      : CoScheduler(opts), bound_(std::move(bound)) {}

  void on_job_submitted(Job& job, SchedContext& ctx) override {
    place_input(job, ctx);
  }
  void on_maps_completed(Job& job, SchedContext& ctx) override;
  std::optional<TaskChoice> pick_task(RackId rack, SchedContext& ctx) override;
  /// The oracle takes no shortcuts.
  [[nodiscard]] bool last_decline_was_global() const override {
    return false;
  }

  // No caches to maintain or audit.
  void on_task_placed(Job&, Task&, RackId) override {}
  void on_task_completed(Job&, Task&, RackId) override {}
  void on_task_requeued(Job&, Task&, RackId) override {}
  void on_job_completed(Job&) override {}
  void on_reduce_plan_cleared(Job&) override {}
  [[nodiscard]] std::string audit_invariants(
      const std::vector<Job*>&) const override {
    return {};
  }

 private:
  CctBoundFn bound_;
};

/// make_scheduler_factory(name) with the Co-scheduler family ("coscheduler",
/// "mts+ocas", "ocas") swapped for ReferenceCoScheduler under the same
/// options and `bound`. The other schedulers have a single engine and come
/// back unchanged.
[[nodiscard]] SchedulerFactory make_reference_scheduler_factory(
    const std::string& name, CctBoundFn bound = {});

}  // namespace cosched
