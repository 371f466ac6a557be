// The runtime invariant auditor (ctest -L audit): clean runs across
// schedulers and fault plans pass every check, a deliberately corrupted
// byte ledger is caught with a structured dump, audited runs are
// bit-for-bit identical to unaudited ones, the event-queue consistency
// scan holds under cancel/compaction churn, and the checks on incremental
// state (open-flow tallies, Sunflow's skips and pending lists) fire when
// that state is corrupted.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "coflow/sunflow.h"
#include "fabric/ocs_fabric.h"
#include "faults/fault_spec.h"
#include "sched/coscheduler.h"
#include "sched/fair.h"
#include "sim/driver.h"
#include "sim/experiment.h"

namespace cosched {
namespace {

FaultPlan parse_plan(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return plan.value_or(FaultPlan{});
}

/// A small cluster + workload big enough to exercise both fabrics, plan
/// installs, and container churn, small enough to run in milliseconds.
ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sim.topo.num_racks = 10;
  cfg.sim.topo.servers_per_rack = 2;
  cfg.sim.topo.slots_per_server = 10;
  cfg.workload.num_jobs = 14;
  cfg.workload.num_users = 4;
  cfg.workload.arrival_window = Duration::minutes(3);
  cfg.workload.max_maps = 50;
  cfg.workload.max_reduces = 8;
  cfg.workload.heavy_input_mu = 2.5;
  cfg.workload.heavy_input_sigma = 0.8;
  cfg.workload.max_input = DataSize::gigabytes(40);
  cfg.repetitions = 1;
  cfg.base_seed = seed;
  cfg.sim.audit = true;
  return cfg;
}

JobSpec shuffle_job(std::int64_t id, std::int32_t maps, std::int32_t reduces,
                    double input_gb, double sir) {
  JobSpec s;
  s.id = JobId{id};
  s.user = UserId{0};
  s.num_maps = maps;
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(input_gb);
  s.sir = sir;
  s.map_durations.assign(static_cast<std::size_t>(maps),
                         Duration::seconds(5));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(5));
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---- clean runs across schedulers and fault plans --------------------------

TEST(Audit, CleanRunsPassAcrossSchedulers) {
  const ExperimentConfig cfg = small_config(101);
  for (const std::string name :
       {"fair", "corral", "coscheduler", "mts+ocas", "ocas"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    EXPECT_NO_THROW((void)run_once(cfg, factory, 0)) << name;
  }
}

TEST(Audit, CleanRunsPassUnderFullFaultPlan) {
  ExperimentConfig cfg = small_config(202);
  cfg.sim.faults = parse_plan(
      "straggler:p=0.2:slow=2,container-kill:p=0.1,"
      "ocs-outage:at=40s:dur=30s,reconfig-jitter:pct=50,trem-noise:pct=20");
  for (const std::string name : {"fair", "coscheduler"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    EXPECT_NO_THROW((void)run_once(cfg, factory, 0)) << name;
  }
}

TEST(Audit, AuditorActuallyRanAndDrainedItsLedgers) {
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  ASSERT_NE(driver.auditor(), nullptr);
  (void)driver.run();
  EXPECT_GT(driver.auditor()->checks_run(), 0);
  EXPECT_GT(driver.auditor()->tracked_flows(), 0u);
}

TEST(Audit, DisabledConfigHasNoAuditor) {
  SimConfig cfg;
  cfg.topo.num_racks = 4;
  cfg.topo.servers_per_rack = 1;
  cfg.topo.slots_per_server = 4;
  cfg.audit = false;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 2, 0, 1.0, 0.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<FairScheduler>());
  EXPECT_EQ(driver.auditor(), nullptr);
  EXPECT_NO_THROW((void)driver.run());
}

// ---- the auditor is passive: audit on == audit off, bit for bit ------------

TEST(Audit, AuditedRunIsBitIdenticalToUnaudited) {
  ExperimentConfig on = small_config(303);
  on.sim.faults = parse_plan("container-kill:p=0.1,ocs-outage:at=30s:dur=20s");
  ExperimentConfig off = on;
  off.sim.audit = false;
  for (const std::string name : {"fair", "coscheduler"}) {
    const SchedulerFactory factory = make_scheduler_factory(name);
    const RunMetrics a = run_once(on, factory, 0);
    const RunMetrics b = run_once(off, factory, 0);
    EXPECT_EQ(bits(a.makespan.sec()), bits(b.makespan.sec())) << name;
    EXPECT_EQ(a.ocs_bytes.in_bytes(), b.ocs_bytes.in_bytes()) << name;
    EXPECT_EQ(a.eps_bytes.in_bytes(), b.eps_bytes.in_bytes()) << name;
    EXPECT_EQ(a.local_bytes.in_bytes(), b.local_bytes.in_bytes()) << name;
    EXPECT_EQ(a.events_executed, b.events_executed) << name;
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << name;
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
      EXPECT_EQ(bits(a.jobs[j].jct.sec()), bits(b.jobs[j].jct.sec()))
          << name << " job#" << j;
      EXPECT_EQ(bits(a.jobs[j].cct.sec()), bits(b.jobs[j].cct.sec()))
          << name << " job#" << j;
    }
  }
}

// ---- a broken ledger is caught with a structured dump ----------------------

TEST(Audit, PhantomBytesAreCaughtWithStructuredDump) {
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  ASSERT_NE(driver.auditor(), nullptr);
  // Claim a gigabit was injected that no fabric will ever drain: the first
  // heavy conservation check (job finish) must abort the run.
  driver.auditor()->debug_inject_phantom_bits(1e9);
  try {
    (void)driver.run();
    FAIL() << "corrupted byte ledger was not caught";
  } catch (const AuditFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("INVARIANT AUDIT FAILURE"), std::string::npos) << what;
    EXPECT_NE(what.find("byte-conservation"), std::string::npos) << what;
    EXPECT_NE(what.find("sim time"), std::string::npos) << what;
    EXPECT_NE(what.find("container ledger"), std::string::npos) << what;
    EXPECT_NE(what.find("byte ledger"), std::string::npos) << what;
  }
}

TEST(Audit, PhantomBitsBelowToleranceAreAccepted) {
  // The slack exists so sub-residual completion residue never false-alarms;
  // a corruption inside the documented tolerance is by design invisible.
  SimConfig cfg;
  cfg.topo.num_racks = 6;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.slots_per_server = 4;
  cfg.audit = true;
  auto jobs = std::vector<JobSpec>{shuffle_job(0, 4, 3, 8.0, 1.0)};
  SimulationDriver driver(cfg, jobs, std::make_unique<CoScheduler>());
  driver.auditor()->debug_inject_phantom_bits(1.0);
  EXPECT_NO_THROW((void)driver.run());
}

TEST(Audit, AuditFailureIsACheckFailure) {
  // Callers with existing CheckFailure handlers also catch audit aborts.
  const AuditFailure f("boom");
  const CheckFailure* base = &f;
  EXPECT_STREQ(base->what(), "boom");
}

// ---- event-queue consistency under churn -----------------------------------

TEST(Audit, QueueConsistentThroughCancelAndCompactionChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      handles.push_back(sim.schedule_after(
          Duration::seconds(1.0 + round + 0.01 * i), [] {}));
    }
    // Cancel two of every three handles (re-cancelling is a no-op): with a
    // majority of the heap tombstoned, the queue must compact mid-churn.
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (i % 3 != 0) handles[i].cancel();
    }
    ASSERT_TRUE(sim.queue_consistent()) << "round " << round;
    sim.run_until(SimTime::seconds(round + 0.5));
    ASSERT_TRUE(sim.queue_consistent()) << "round " << round;
  }
  sim.run();
  EXPECT_TRUE(sim.queue_consistent());
  EXPECT_GT(sim.queue_compactions(), 0);
}

// ---- incremental state: tallies and skips are re-derived -------------------

TEST(Audit, OpenFlowTallyFollowsFlowsAndCatchesADetachedFlow) {
  HybridTopology topo;
  topo.num_racks = 4;
  Simulator sim;
  Network net(sim, topo, std::make_unique<OcsFabric>(sim, topo, 1));
  Cluster cluster(topo);
  InvariantAuditor auditor(sim, net, cluster, net.fabric(), topo);
  IdAllocator<TaskId> task_ids;
  IdAllocator<FlowId> flow_ids;
  Job job(shuffle_job(0, 2, 2, 8.0, 1.0), topo.elephant_threshold, task_ids,
          CoflowId{0});
  Coflow& c = job.coflow();
  const DataSize gb = DataSize::gigabytes(1);
  Flow* a = c.add_demand(flow_ids, RackId{0}, RackId{1}, gb).first;
  Flow* b = c.add_demand(flow_ids, RackId{2}, RackId{1}, gb).first;
  Flow* d = c.add_demand(flow_ids, RackId{0}, RackId{2}, gb).first;
  EXPECT_FALSE(c.flows_into_done(RackId{1}));
  a->mark_completed(SimTime::seconds(1));
  a->mark_completed(SimTime::seconds(1));  // idempotent
  b->mark_completed(SimTime::seconds(1));
  EXPECT_TRUE(c.flows_into_done(RackId{1}));
  EXPECT_FALSE(c.all_flows_complete());
  d->mark_completed(SimTime::seconds(2));
  EXPECT_TRUE(c.all_flows_complete());
  // A late reduce reopens a drained flow.
  c.add_demand(flow_ids, RackId{0}, RackId{1}, gb);
  EXPECT_FALSE(c.flows_into_done(RackId{1}));
  EXPECT_FALSE(c.all_flows_complete());
  EXPECT_EQ(c.audit_open_flows(), "");
  EXPECT_NO_THROW(auditor.check_open_flows(job));

  // A flow that completes without reporting to the tally leaves it one
  // over.
  a->set_tally(nullptr);
  a->mark_completed(SimTime::seconds(3));
  EXPECT_FALSE(c.flows_into_done(RackId{1}));
  EXPECT_NE(c.audit_open_flows().find("into rack 1"), std::string::npos)
      << c.audit_open_flows();
  try {
    auditor.check_open_flows(job);
    FAIL() << "corrupted open-flow tally was not caught";
  } catch (const AuditFailure& e) {
    EXPECT_NE(std::string(e.what()).find("open-flow-tally"),
              std::string::npos)
        << e.what();
  }
}

/// One-plane Sunflow with self-audit on: coflow `head` holds a circuit
/// 0->1 and coflow `tail` waits on out-port 0 with a flow 0->2.
struct AuditedSunflow {
  HybridTopology topo = make_topo();
  Simulator sim;
  Network net{sim, topo, std::make_unique<OcsFabric>(sim, topo, 1)};
  SunflowScheduler sunflow{sim, net.fabric()};
  IdAllocator<FlowId> flow_ids;
  Coflow head{CoflowId{0}, JobId{0}};
  Coflow tail{CoflowId{1}, JobId{1}};
  Flow* held = nullptr;
  Flow* waiting = nullptr;

  static HybridTopology make_topo() {
    HybridTopology t;
    t.num_racks = 4;
    t.ocs_link = Bandwidth::gbps(100);
    t.ocs_reconfig_delay = Duration::milliseconds(10);
    return t;
  }

  AuditedSunflow() {
    sunflow.set_self_audit(true);
    held = head.add_demand(flow_ids, RackId{0}, RackId{1},
                           DataSize::gigabytes(1))
               .first;
    waiting = tail.add_demand(flow_ids, RackId{0}, RackId{2},
                              DataSize::gigabytes(100))
                  .first;
    held->set_path(FlowPath::kOcs);
    waiting->set_path(FlowPath::kOcs);
    sunflow.submit(head, *held);
  }

  /// Run the pending allocation pass, stopping before any circuit is up.
  void run_pass() { sim.run_until(sim.now() + Duration::milliseconds(1)); }
};

TEST(Audit, SunflowSkipIsExactOnTheCleanPath) {
  AuditedSunflow fx;
  fx.sunflow.submit(fx.tail, *fx.waiting);
  fx.run_pass();  // head takes 0->1; tail is skipped: out-port 0 is busy
  EXPECT_EQ(fx.sunflow.pending_flows(), 1u);
  EXPECT_EQ(fx.sunflow.self_check(), "");
  fx.sim.run();
  EXPECT_TRUE(fx.held->completed());
  EXPECT_TRUE(fx.waiting->completed());
  EXPECT_EQ(fx.sunflow.self_check(), "");
}

TEST(Audit, SunflowSkipOfAnEligibleEdgeIsCaught) {
  AuditedSunflow fx;
  fx.sunflow.submit(fx.tail, *fx.waiting);
  fx.run_pass();
  ASSERT_EQ(fx.sunflow.self_check(), "");
  // Free out-port 0 behind Sunflow's back: no change stamp records it, so
  // the next pass wrongly skips the tail coflow, whose 0->2 edge is now
  // eligible. The from-scratch rescan must notice.
  fx.net.fabric().plane(0)->teardown_circuit(RackId{0}, RackId{1});
  fx.sunflow.kick();
  fx.run_pass();
  EXPECT_NE(fx.sunflow.self_check().find("skipped on plane 0 with an "
                                         "eligible edge"),
            std::string::npos)
      << fx.sunflow.self_check();
}

TEST(Audit, SunflowDuplicatePendingPairIsCaught) {
  AuditedSunflow fx;
  // The same rack pair queued twice breaks the one-flow-per-pair rule the
  // incremental sort relies on.
  fx.sunflow.submit(fx.tail, *fx.waiting);
  fx.sunflow.submit(fx.tail, *fx.waiting);
  fx.run_pass();
  EXPECT_NE(fx.sunflow.self_check().find("0->2 is pending twice"),
            std::string::npos)
      << fx.sunflow.self_check();
}

TEST(Audit, SunflowLateFlowsMergeIntoTheSortedPrefix) {
  // The fixture's head holds 0->1, so 3->2 takes a circuit and 3->1 stays
  // queued, a sorted prefix of one. Flows out of rack 1 arrive later and
  // sort before it; once 1->0 is matched, the two left queued must still
  // be in (src, dst) order.
  AuditedSunflow fx;
  Coflow c(CoflowId{5}, JobId{5});
  const auto queue = [&](int src, int dst) {
    Flow* f = c.add_demand(fx.flow_ids, RackId{src}, RackId{dst},
                           DataSize::gigabytes(1))
                  .first;
    f->set_path(FlowPath::kOcs);
    fx.sunflow.submit(c, *f);
  };
  queue(3, 1);
  queue(3, 2);
  fx.run_pass();
  queue(1, 0);
  queue(1, 2);
  fx.run_pass();
  EXPECT_EQ(fx.sunflow.pending_flows(), 2u);
  EXPECT_EQ(fx.sunflow.self_check(), "");
}

TEST(Audit, SunflowReservationLiftReopensAnotherPlane) {
  // Two planes. The head coflow holds in-port 1 on both; the middle
  // coflow's 0->1 waits for it and reserves out-port 0, so the tail's
  // 0->2 is skipped although out-port 0 is free on plane 0. When the head
  // drains 2->1 from plane 1, the middle takes 0->1 there and stops
  // reserving out-port 0: the tail must now get plane 0, with no port of
  // its own having freed.
  HybridTopology topo = AuditedSunflow::make_topo();
  Simulator sim;
  Network net(sim, topo, std::make_unique<OcsFabric>(sim, topo, 2));
  SunflowScheduler sunflow(sim, net.fabric());
  sunflow.set_self_audit(true);
  IdAllocator<FlowId> ids;
  Coflow head(CoflowId{0}, JobId{0});
  Coflow middle(CoflowId{1}, JobId{1});
  Coflow tail(CoflowId{2}, JobId{2});
  const auto queue = [&](Coflow& c, int src, int dst, double mb) {
    Flow* f = c.add_demand(ids, RackId{src}, RackId{dst},
                           DataSize::megabytes(mb))
                  .first;
    f->set_path(FlowPath::kOcs);
    sunflow.submit(c, *f);
    return f;
  };
  queue(head, 3, 1, 2.0);  // 160 us on plane 0
  queue(head, 2, 1, 1.0);  // 80 us on plane 1
  Flow* waits = queue(middle, 0, 1, 1000.0);
  Flow* skipped = queue(tail, 0, 2, 100000.0);
  sim.run_until(SimTime::seconds(0.005));
  EXPECT_EQ(sunflow.pending_flows(), 2u);
  // 2->1 drains at 10.08 ms, 3->1 only at 10.16 ms.
  sim.run_until(SimTime::seconds(0.01012));
  EXPECT_EQ(sunflow.self_check(), "");
  EXPECT_EQ(sunflow.pending_flows(), 0u);
  sim.run();
  EXPECT_TRUE(waits->completed());
  EXPECT_NEAR(skipped->completion_time().sec(), 0.01008 + 0.01 + 8.0, 1e-9);
  EXPECT_EQ(sunflow.self_check(), "");
}

}  // namespace
}  // namespace cosched
