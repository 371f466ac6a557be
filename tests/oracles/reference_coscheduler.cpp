#include "oracles/reference_coscheduler.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "common/check.h"
#include "sched/fairness.h"

namespace cosched {

std::vector<PossibleSchedule> possible_reduce_schedules(
    const std::vector<DataSize>& sm, std::int32_t num_reduces,
    DataSize elephant_threshold, const CctBoundFn& bound,
    std::int32_t max_racks) {
  std::vector<PossibleSchedule> out;
  if (sm.empty() || num_reduces <= 0) return out;
  std::vector<DataSize> sorted = sm;
  std::sort(sorted.begin(), sorted.end());
  const DataSize sm_min = sorted.front();
  COSCHED_CHECK_MSG(sm_min >= elephant_threshold,
                    "PSRT input must be pre-filtered to >= T_e");

  // Upper bound on R_red: floor(SM_1 / T_e) keeps every flow from the
  // smallest map rack above the threshold (Equation 7), further capped by
  // the number of reduce tasks and racks available.
  const auto r_red_max = static_cast<std::int32_t>(std::min<std::int64_t>(
      {sm_min.in_bytes() / elephant_threshold.in_bytes(),
       static_cast<std::int64_t>(num_reduces),
       static_cast<std::int64_t>(max_racks)}));

  for (std::int32_t r_red = 1; r_red <= r_red_max; ++r_red) {
    // Aggregation floor: rack j needs d_j reduces so that
    // SM_1 * d_j / num_reduces >= T_e.
    const auto d_min = static_cast<std::int32_t>(std::ceil(
        static_cast<double>(elephant_threshold.in_bytes()) *
        static_cast<double>(num_reduces) /
        static_cast<double>(sm_min.in_bytes())));
    if (static_cast<std::int64_t>(d_min) * r_red > num_reduces) {
      continue;  // cannot aggregate every rack past the threshold
    }

    // Start every rack at the floor, then feed the remaining tasks to the
    // currently least-loaded rack (received data is proportional to d_j, so
    // least-loaded = smallest d_j). This minimizes max_j col-sum and hence
    // the lower bound.
    std::vector<std::int32_t> d(static_cast<std::size_t>(r_red), d_min);
    std::int32_t rem = num_reduces - d_min * r_red;
    std::size_t next = 0;
    while (rem > 0) {
      d[next] += 1;
      next = (next + 1) % d.size();
      --rem;
    }

    // CCT lower bound for this placement, with reduce racks abstracted as
    // fresh ids (rack identities are chosen later by SBS).
    TrafficMatrix matrix;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      for (std::size_t j = 0; j < d.size(); ++j) {
        const DataSize c =
            sorted[i] * (static_cast<double>(d[j]) /
                         static_cast<double>(num_reduces));
        matrix.add(RackId{static_cast<std::int64_t>(i)},
                   RackId{static_cast<std::int64_t>(1000000 + j)}, c);
      }
    }
    PossibleSchedule ps;
    ps.d = std::move(d);
    ps.cct = bound(matrix);
    out.push_back(std::move(ps));
  }
  return out;
}

std::vector<ExploredSchedule> explore_schedules(
    const std::vector<PossibleSchedule>& schedules, std::int32_t num_racks,
    AvailabilityOracle& availability) {
  std::vector<ExploredSchedule> out;
  for (const PossibleSchedule& ps : schedules) {
    // ExploreSchedule (Algorithm 1): descending D, each d_i to the
    // earliest-available unselected rack.
    ExploredSchedule ex;
    ex.d = ps.d;
    std::sort(ex.d.begin(), ex.d.end(), std::greater<>());
    ex.cct = ps.cct;

    bool feasible = true;
    for (std::int32_t di : ex.d) {
      Duration best_t = Duration::infinity();
      RackId best_rack = RackId::invalid();
      for (std::int32_t r = 0; r < num_racks; ++r) {
        const RackId rack{r};
        if (ex.plan.count(rack) > 0) continue;  // selected racks are spent
        const Duration t = availability.estimate_availability(rack, di);
        if (t < best_t) {
          best_t = t;
          best_rack = rack;
        }
      }
      if (!best_rack.valid() || !best_t.is_finite()) {
        feasible = false;
        break;
      }
      ex.plan[best_rack] = di;
      ex.t_max = std::max(ex.t_max, best_t);
    }
    if (feasible) out.push_back(std::move(ex));
  }
  return out;
}

void ReferenceCoScheduler::on_maps_completed(Job& job, SchedContext& ctx) {
  const std::vector<DataSize> sm = planning_input(job, ctx);
  if (sm.empty()) return;
  const std::vector<PossibleSchedule> schedules = possible_reduce_schedules(
      sm, job.spec().num_reduces, ctx.topo.elephant_threshold,
      bound_ ? bound_ : planner_bound(ctx), ctx.topo.num_racks);
  if (schedules.empty()) return;
  install_best_plan(
      job, schedules.size(),
      explore_schedules(schedules, ctx.topo.num_racks, ctx.availability), ctx);
}

std::optional<TaskChoice> ReferenceCoScheduler::pick_task(RackId rack,
                                                          SchedContext& ctx) {
  for (UserId user : fair_user_order(ctx.active_jobs)) {
    std::vector<Job*> jobs;
    for (Job* job : ctx.active_jobs) {
      if (job->spec().user == user) jobs.push_back(job);
    }

    // OCAS priority classes (Algorithm 2), evaluated across the user's
    // jobs in arrival order.

    // 1. Reduce from a shuffle-heavy job whose best schedule contains this
    //    rack (plan capacity remaining).
    for (Job* job : jobs) {
      if (!job->shuffle_heavy() || !job->has_reduce_plan()) continue;
      if (job->reduce_plan_remaining(rack) <= 0) continue;
      if (!reduces_eligible(*job, ctx)) continue;
      if (Task* t = job->next_pending_reduce()) return TaskChoice{job, t, 1};
    }
    // 2. Map from a shuffle-heavy job whose data is on this rack and which
    //    keeps the job's maps on its R_map guideline racks.
    for (Job* job : jobs) {
      if (!job->shuffle_heavy() || job->r_map_guideline() <= 0) continue;
      if (!job->in_map_guideline(rack)) continue;
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 2};
      }
    }
    // 3. Reduce from a non-shuffle-heavy job.
    for (Job* job : jobs) {
      if (job->shuffle_heavy()) continue;
      if (!reduces_eligible(*job, ctx)) continue;
      if (Task* t = job->next_pending_reduce()) return TaskChoice{job, t, 3};
    }
    // 4. Any map from a non-shuffle-heavy job (local first).
    for (Job* job : jobs) {
      if (job->shuffle_heavy()) continue;
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 4};
      }
    }
    for (Job* job : jobs) {
      if (job->shuffle_heavy()) continue;
      if (Task* t = job->next_pending_map_any()) return TaskChoice{job, t, 4};
    }
    // 5. Any available reduce: shuffle-heavy jobs with no plan (their map
    //    output cannot use the OCS anyway). Planned jobs stay on plan.
    for (Job* job : jobs) {
      if (!job->shuffle_heavy() || job->has_reduce_plan()) continue;
      if (!reduces_eligible(*job, ctx)) continue;
      if (Task* t = job->next_pending_reduce()) return TaskChoice{job, t, 5};
    }
    // 6. Any available map. For a guided shuffle-heavy job this is the
    //    overflow path (maps beyond the R_map cap or off the data racks,
    //    paying the remote-read penalty); it only opens once the job's
    //    guideline racks are saturated, otherwise the guideline would
    //    dissolve the moment any other rack had a free container.
    for (Job* job : jobs) {
      if (!map_overflow_allowed(*job, ctx)) continue;
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 6};
      }
    }
    for (Job* job : jobs) {
      if (!map_overflow_allowed(*job, ctx)) continue;
      if (Task* t = job->next_pending_map_any()) return TaskChoice{job, t, 6};
    }
  }
  return std::nullopt;
}

SchedulerFactory make_reference_scheduler_factory(const std::string& name,
                                                  CctBoundFn bound) {
  CoScheduler::Options opts;
  if (name == "mts+ocas") {
    opts.enable_reduce_planning = false;
  } else if (name == "ocas") {
    opts.enable_mts = false;
    opts.enable_reduce_planning = false;
  } else if (name != "coscheduler") {
    return make_scheduler_factory(name);
  }
  return [opts, bound] {
    return std::make_unique<ReferenceCoScheduler>(opts, bound);
  };
}

}  // namespace cosched
