// Unit tests for the scheduler module: fairness ordering, the PSRT
// possible-schedule computation and OCAS's no-grant memo. Whole-scheduler
// behavior is exercised end-to-end in test_sim.cpp.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/job.h"
#include "common/rng.h"
#include "sched/coscheduler.h"
#include "sched/fairness.h"

namespace cosched {
namespace {

JobSpec spec_for_user(std::int64_t job_id, std::int64_t user,
                      std::int32_t maps, std::int32_t reduces) {
  JobSpec s;
  s.id = JobId{job_id};
  s.user = UserId{user};
  s.num_maps = maps;
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(1);
  s.sir = 1.0;
  s.map_durations.assign(static_cast<std::size_t>(maps),
                         Duration::seconds(10));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(10));
  return s;
}

// ------------------------------------------------------------- fairness ---

TEST(Fairness, OrdersByRunningTasksAscending) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 0, 4, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 1, 4, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  // User 0 has 2 running tasks, user 1 has none.
  a.note_map_placed(RackId{0});
  a.note_map_placed(RackId{1});
  std::vector<Job*> jobs{&a, &b};
  const auto order = fair_user_order(jobs);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], UserId{1});
  EXPECT_EQ(order[1], UserId{0});
}

TEST(Fairness, CompletedTasksDoNotCount) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 0, 4, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 1, 4, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  a.note_map_placed(RackId{0});
  a.note_map_completed(RackId{0}, DataSize::zero());
  b.note_map_placed(RackId{0});
  std::vector<Job*> jobs{&a, &b};
  const auto order = fair_user_order(jobs);
  EXPECT_EQ(order[0], UserId{0});  // 0 running beats 1 running
}

TEST(Fairness, TieBreaksByUserId) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 5, 1, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 2, 1, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  std::vector<Job*> jobs{&a, &b};
  const auto order = fair_user_order(jobs);
  EXPECT_EQ(order[0], UserId{2});
  EXPECT_EQ(order[1], UserId{5});
}

TEST(Fairness, JobsOfUserPreservesArrivalOrder) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 1, 1, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 2, 1, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  Job c(spec_for_user(2, 1, 1, 0), DataSize::gigabytes(99), ids, CoflowId{2});
  std::vector<Job*> jobs{&a, &b, &c};
  const auto mine = jobs_of_user(jobs, UserId{1});
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0]->id(), JobId{0});
  EXPECT_EQ(mine[1]->id(), JobId{2});
}

// ----------------------------------------------------------------- PSRT ---

constexpr auto kTe = DataSize::gigabytes(1.125);
const Bandwidth kBw = Bandwidth::gbps(100);
const Duration kDelta = Duration::milliseconds(10);
const CctBoundFn kBound = legacy_cct_bound(kBw, kDelta);

TEST(Psrt, EmptyInputsYieldNoSchedules) {
  EXPECT_TRUE(
      possible_reduce_schedules_incremental({}, 10, kTe, kBound, 60).empty());
  EXPECT_TRUE(possible_reduce_schedules_incremental(
                  {DataSize::gigabytes(10)}, 0, kTe, kBound, 60)
                  .empty());
}

TEST(Psrt, RRedRangeFollowsEquation7) {
  // SM_min = 5 GB, T_e = 1.125 GB -> floor(5/1.125) = 4 possible R_red.
  const std::vector<DataSize> sm{DataSize::gigabytes(5),
                                 DataSize::gigabytes(9)};
  const auto schedules =
      possible_reduce_schedules_incremental(sm, 100, kTe, kBound, 60);
  ASSERT_EQ(schedules.size(), 4u);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    EXPECT_EQ(schedules[i].d.size(), i + 1);
  }
}

TEST(Psrt, DistributionSumsToReduceCountAndMeetsFloor) {
  const std::vector<DataSize> sm{DataSize::gigabytes(5),
                                 DataSize::gigabytes(9)};
  const std::int32_t reduces = 100;
  for (const auto& ps :
       possible_reduce_schedules_incremental(sm, reduces, kTe, kBound, 60)) {
    std::int32_t total = 0;
    for (std::int32_t d : ps.d) {
      total += d;
      // Aggregation floor: SM_min * d / reduces >= T_e.
      EXPECT_GE(DataSize::gigabytes(5) *
                    (static_cast<double>(d) / reduces),
                kTe);
    }
    EXPECT_EQ(total, reduces);
  }
}

TEST(Psrt, DistributionIsBalanced) {
  const std::vector<DataSize> sm{DataSize::gigabytes(12)};
  for (const auto& ps :
       possible_reduce_schedules_incremental(sm, 50, kTe, kBound, 60)) {
    const auto [lo, hi] = std::minmax_element(ps.d.begin(), ps.d.end());
    EXPECT_LE(*hi - *lo, 1) << "remaining tasks must go to least-loaded";
  }
}

TEST(Psrt, CctIsMinimizedAtRredEqualRmap) {
  // Equation 2: a map rack's outbound work (40 GB) is fixed regardless of
  // R_red, but gains one reconfiguration per reduce rack; a reduce rack's
  // inbound shrinks as 80/R_red GB. The bound is minimized where the two
  // cross — at R_red = R_map, exactly the paper's Section IV-C analysis.
  const std::vector<DataSize> sm{DataSize::gigabytes(40),
                                 DataSize::gigabytes(40)};
  const auto schedules =
      possible_reduce_schedules_incremental(sm, 64, kTe, kBound, 60);
  ASSERT_GT(schedules.size(), 2u);
  std::size_t best = 0;
  for (std::size_t i = 1; i < schedules.size(); ++i) {
    if (schedules[i].cct < schedules[best].cct) best = i;
  }
  EXPECT_EQ(schedules[best].d.size(), 2u);  // R_red == R_map == 2
  // At the optimum: row = col = 40 GB at 100 Gb/s + 2 reconfigurations.
  EXPECT_NEAR(schedules[best].cct.sec(), 3.2 + 0.02, 1e-9);
}

TEST(Psrt, CctMatchesManualBoundForSingleRack) {
  // One map rack (10 GB), one reduce rack: a single flow.
  const std::vector<DataSize> sm{DataSize::gigabytes(10)};
  const auto schedules =
      possible_reduce_schedules_incremental(sm, 4, kTe, kBound, 60);
  ASSERT_FALSE(schedules.empty());
  const auto& one = schedules.front();
  ASSERT_EQ(one.d.size(), 1u);
  EXPECT_EQ(one.d[0], 4);
  EXPECT_NEAR(one.cct.sec(),
              transfer_time(DataSize::gigabytes(10), kBw).sec() +
                  kDelta.sec(),
              1e-9);
}

TEST(Psrt, RespectsMaxRacksCap) {
  const std::vector<DataSize> sm{DataSize::gigabytes(100)};
  const auto schedules =
      possible_reduce_schedules_incremental(sm, 100, kTe, kBound, 3);
  EXPECT_LE(schedules.size(), 3u);
}

TEST(Psrt, CapsAtReduceCount) {
  const std::vector<DataSize> sm{DataSize::gigabytes(100)};
  const auto schedules =
      possible_reduce_schedules_incremental(sm, 2, kTe, kBound, 60);
  EXPECT_LE(schedules.size(), 2u);
}

TEST(Psrt, SkipsInfeasibleAggregation) {
  // SM_min barely above T_e: d_min ~= reduces, so only R_red = 1 fits.
  const std::vector<DataSize> sm{DataSize::gigabytes(1.2)};
  const auto schedules =
      possible_reduce_schedules_incremental(sm, 10, kTe, kBound, 60);
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_EQ(schedules[0].d.size(), 1u);
}

// Property sweep: random map-output distributions, all PSRT invariants.
class PsrtProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsrtProperty, InvariantsHoldForRandomDistributions) {
  Rng rng(GetParam());
  const int n_racks = 1 + static_cast<int>(rng.uniform_int(0, 11));
  std::vector<DataSize> sm;
  for (int i = 0; i < n_racks; ++i) {
    // >= T_e by construction (pre-filtered input contract).
    sm.push_back(DataSize::gigabytes(1.125 + rng.uniform(0.0, 80.0)));
  }
  const auto reduces = static_cast<std::int32_t>(rng.uniform_int(1, 150));
  const auto schedules =
      possible_reduce_schedules_incremental(sm, reduces, kTe, kBound, 60);

  DataSize sm_min = sm.front();
  for (const DataSize& s : sm) sm_min = std::min(sm_min, s);
  const auto expected_max = std::min<std::int64_t>(
      {sm_min.in_bytes() / kTe.in_bytes(), reduces, 60});

  std::size_t prev_racks = 0;
  for (const auto& ps : schedules) {
    // R_red values are distinct, increasing, within Equation 7's range.
    EXPECT_GT(ps.d.size(), prev_racks);
    prev_racks = ps.d.size();
    EXPECT_LE(static_cast<std::int64_t>(ps.d.size()), expected_max);

    std::int32_t total = 0;
    for (std::int32_t d : ps.d) {
      total += d;
      // Every rack aggregates past the threshold from the smallest
      // map rack (the paper's aggregation floor).
      EXPECT_GE(sm_min * (static_cast<double>(d) / reduces) +
                    DataSize::bytes(8),  // rounding slack
                kTe);
    }
    EXPECT_EQ(total, reduces);
    // Balance: remaining tasks go to the least-loaded rack.
    const auto [lo, hi] = std::minmax_element(ps.d.begin(), ps.d.end());
    EXPECT_LE(*hi - *lo, 1);
    EXPECT_GT(ps.cct, Duration::zero());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDistributions, PsrtProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Psrt, RejectsUnfilteredInput) {
  const std::vector<DataSize> sm{DataSize::megabytes(100)};
  EXPECT_THROW(
      (void)possible_reduce_schedules_incremental(sm, 10, kTe, kBound, 60),
      CheckFailure);
}

// ----------------------------------------------------------------- OCAS ---

class NoWaitOracle : public AvailabilityOracle {
 public:
  Duration estimate_availability(RackId, std::int64_t) override {
    return Duration::zero();
  }
};

// A decline outlives grants that cannot reverse it, except through the
// class-6 gate: here a grant to another job takes the last free container
// on a guided job's only guideline rack, which opens the guided job's
// overflow path, so a rack that declined earlier must now grant.
TEST(Ocas, GrantThatOpensOverflowGateReversesEarlierDecline) {
  HybridTopology topo;
  topo.num_racks = 4;
  topo.servers_per_rack = 1;
  topo.slots_per_server = 1;
  Cluster cluster(topo);
  IdAllocator<TaskId> ids;
  JobSpec guided_spec = spec_for_user(0, 1, 2, 1);
  guided_spec.input_size = DataSize::gigabytes(50);
  Job guided(guided_spec, topo.elephant_threshold, ids, CoflowId{0});
  JobSpec planned_spec = spec_for_user(1, 0, 1, 1);
  planned_spec.input_size = DataSize::gigabytes(50);
  Job planned(planned_spec, topo.elephant_threshold, ids, CoflowId{1});
  ASSERT_TRUE(guided.shuffle_heavy());
  ASSERT_TRUE(planned.shuffle_heavy());

  std::vector<Job*> active{&guided, &planned};
  NoWaitOracle oracle;
  Rng rng(7);
  SchedContext ctx{SimTime::zero(), topo, cluster, active, oracle, rng};
  CoScheduler sched(CoScheduler::Options{.enable_reduce_planning = false});
  sched.on_job_submitted(guided, ctx);
  sched.on_job_submitted(planned, ctx);
  // The guided job's every block, and its one guideline rack, is rack 0.
  guided.set_block_placement(
      std::vector<BlockReplicas>(2, BlockReplicas{{RackId{0}}}));
  guided.set_r_map_guideline(1);
  guided.set_guideline_map_racks({RackId{0}});
  // The planned job's maps are done and its one reduce is planned on
  // rack 0. It belongs to user 0, who wins the fair-share tie.
  Task& map = planned.maps()[0];
  map.place(RackId{3}, NodeId{3}, SimTime::zero());
  planned.note_map_placed(RackId{3});
  sched.on_task_placed(planned, map, RackId{3});
  map.complete(SimTime::seconds(1));
  planned.note_map_completed(RackId{3}, DataSize::gigabytes(50));
  sched.on_task_completed(planned, map, RackId{3});
  sched.on_maps_completed(planned, ctx);
  planned.set_reduce_plan({{RackId{0}, 1}}, Duration::seconds(1));

  // Rack 1: no plan capacity, not a guideline rack, and the overflow gate
  // is shut while rack 0 still has a free container for a local map.
  EXPECT_FALSE(sched.pick_task(RackId{1}, ctx).has_value());
  EXPECT_FALSE(sched.last_decline_was_global());

  // Rack 0 goes to the planned reduce (class 1), taking its last slot.
  const std::optional<TaskChoice> reduce = sched.pick_task(RackId{0}, ctx);
  ASSERT_TRUE(reduce.has_value());
  EXPECT_EQ(reduce->job, &planned);
  EXPECT_EQ(reduce->priority_class, 1);
  const NodeId node = cluster.allocate_slot(RackId{0});
  reduce->task->place(RackId{0}, node, SimTime::seconds(1));
  planned.note_reduce_placed(RackId{0});
  sched.on_task_placed(planned, *reduce->task, RackId{0});

  // No free container is left on the guideline rack: the guided job may
  // overflow, so rack 1 now grants it a (remote) map.
  const std::optional<TaskChoice> overflow = sched.pick_task(RackId{1}, ctx);
  ASSERT_TRUE(overflow.has_value());
  EXPECT_EQ(overflow->job, &guided);
  EXPECT_EQ(overflow->priority_class, 6);
  EXPECT_EQ(sched.audit_invariants(active), "");
}

// A decline that outlives a grant reports what a rescan would have: the
// rescan prunes the candidate the grant exhausted, so once the index is
// empty every later re-offer in the wave is a global decline.
TEST(Ocas, DeclineOutlivingAGrantReportsTheRescansGlobalVerdict) {
  HybridTopology topo;
  topo.num_racks = 4;
  topo.servers_per_rack = 1;
  topo.slots_per_server = 2;
  Cluster cluster(topo);
  IdAllocator<TaskId> ids;
  JobSpec spec = spec_for_user(0, 0, 1, 1);
  spec.input_size = DataSize::gigabytes(50);
  Job job(spec, topo.elephant_threshold, ids, CoflowId{0});
  std::vector<Job*> active{&job};
  NoWaitOracle oracle;
  Rng rng(7);
  SchedContext ctx{SimTime::zero(), topo, cluster, active, oracle, rng};
  CoScheduler sched(CoScheduler::Options{.enable_reduce_planning = false});
  sched.on_job_submitted(job, ctx);
  job.set_block_placement({BlockReplicas{{RackId{0}}}});
  job.set_r_map_guideline(1);
  job.set_guideline_map_racks({RackId{0}});

  for (const std::int32_t r : {1, 2}) {
    EXPECT_FALSE(sched.pick_task(RackId{r}, ctx).has_value()) << r;
    EXPECT_FALSE(sched.last_decline_was_global()) << r;
  }
  const std::optional<TaskChoice> map = sched.pick_task(RackId{0}, ctx);
  ASSERT_TRUE(map.has_value());
  const NodeId node = cluster.allocate_slot(RackId{0});
  map->task->place(RackId{0}, node, SimTime::zero());
  job.note_map_placed(RackId{0});
  sched.on_task_placed(job, *map->task, RackId{0});

  // The job is exhausted but still listed: the first re-offer prunes it.
  EXPECT_FALSE(sched.pick_task(RackId{1}, ctx).has_value());
  EXPECT_FALSE(sched.last_decline_was_global());
  for (const std::int32_t r : {2, 3}) {
    EXPECT_FALSE(sched.pick_task(RackId{r}, ctx).has_value()) << r;
    EXPECT_TRUE(sched.last_decline_was_global()) << r;
  }
  EXPECT_EQ(sched.audit_invariants(active), "");
}

}  // namespace
}  // namespace cosched
