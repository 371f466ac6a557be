// SimulationDriver: the trace-driven flow-level event simulation that ties
// together the cluster (containers), the hybrid network (EPS + OCS), the
// coflow scheduler (Sunflow), and a pluggable job scheduler.
//
// Execution model
// ---------------
//  * Job arrival: the job's Job object is built, the scheduler places its
//    input blocks and does admission planning, dispatch is requested.
//  * Dispatch (coalesced per sim instant): racks with free containers are
//    offered to the scheduler one container at a time (Algorithm 2's
//    container-grant loop).
//  * Map tasks compute for their trace duration (+ a deterministic remote-
//    read penalty when not data-local) and report their output size to
//    their rack on completion.
//  * Reduce tasks occupy a container from placement. Their shuffle demand
//    is aggregated per (map rack -> reduce rack) into the job's Coflow:
//      - overlapping schedulers (Fair/Corral): a reduce's demand
//        materializes once placed and all maps are done; flows start (and
//        grow) incrementally, so they are classified small -> EPS;
//      - deferring schedulers (Co-scheduler): the whole coflow is released
//        once every reduce container is granted, so flows carry their full
//        aggregated size and elephants ride the OCS (Section IV-A).
//  * A reduce starts computing when every flow into its rack for its job
//    has drained; the job completes when all reduces do. CCT is measured
//    from coflow release to last flow completion.
#pragma once

#include <chrono>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/invariant_auditor.h"
#include "cluster/cluster.h"
#include "cluster/job.h"
#include "cluster/trem_estimator.h"
#include "common/rng.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"
#include "net/network.h"
#include "sched/scheduler.h"
#include "sim/offer_queue.h"
#include "simcore/simulator.h"
#include "workload/job_spec.h"

namespace cosched {

struct Observability;

/// Whether SimConfig::audit defaults on: yes in Debug builds (and CI's
/// sanitizer matrix), no in Release, where the paper-scale benches run.
/// The auditor is always compiled either way — this only picks the default.
inline constexpr bool kAuditDefaultOn =
#ifdef NDEBUG
    false;
#else
    true;
#endif

struct SimConfig {
  HybridTopology topo;
  /// Which circuit fabric carries the elephants (docs/FABRICS.md). The
  /// default — ocs:1 — is the paper's single-core OCS and runs the exact
  /// pre-fabric-seam code path bit for bit.
  FabricSpec fabric;
  /// Hadoop slow-start fraction for overlapping schedulers: the share of a
  /// job's maps that must finish before its reduces may take containers.
  /// Hadoop's default is 0.05 — the conventional overlap whose container
  /// waste Section IV-A of the paper criticizes.
  double reduce_slowstart = 0.05;
  /// T_rem estimation error rate (Figure 7's knob). A `trem-noise` clause
  /// in `faults` overrides this.
  double trem_error_rate = 0.0;
  /// Fault-injection plan (src/faults/fault_spec.h). The default — an empty
  /// plan — injects nothing and leaves the run bit-for-bit unchanged.
  FaultPlan faults;
  std::uint64_t seed = 1;
  /// Optional tracing/counters/decision-log bundle (must outlive the
  /// driver). Null — the default — records nothing and costs ~nothing.
  Observability* obs = nullptr;
  /// Wall-clock heartbeat period in seconds (--heartbeat=SECS). 0 — the
  /// default — disables it. Heartbeats report progress (sim-time reached,
  /// events processed, jobs finished, events/sec over a sliding window, RSS
  /// high-water) and never touch simulation state: a heartbeating run is
  /// bit-for-bit identical to a silent one.
  double heartbeat_sec = 0.0;
  /// Heartbeat destination; null — the default — means stderr.
  std::ostream* heartbeat_out = nullptr;
  /// Runtime invariant auditor (src/audit/): byte conservation, container
  /// ledger, OCS port exclusivity, event-queue sanity, scheduler contracts.
  /// Purely observational — audited runs are bit-for-bit identical to
  /// unaudited ones; a violation aborts with a structured dump.
  bool audit = kAuditDefaultOn;
};

class SimulationDriver : public AvailabilityOracle {
 public:
  SimulationDriver(SimConfig cfg, std::vector<JobSpec> workload,
                   std::unique_ptr<JobScheduler> scheduler);

  /// Run the whole workload to completion and collect the metrics.
  RunMetrics run();

  /// The invariant auditor, or null when cfg.audit is false. Exposed for
  /// the audit tests (checks_run, debug_inject_phantom_bits).
  [[nodiscard]] InvariantAuditor* auditor() { return audit_.get(); }
  /// The run's network. Exposed for the tests' per-replan EPS rate check
  /// (EpsFabric::set_replan_observer).
  [[nodiscard]] Network& network() { return net_; }

  // AvailabilityOracle: estimated delay until `count` containers are free
  // simultaneously on `rack` (free now => zero).
  Duration estimate_availability(RackId rack, std::int64_t count) override;

 private:
  SchedContext make_context();

  /// Drain the event queue like `sim_.run()`, but stepped from the driver
  /// so wall-clock instrumentation (PerfMonitor event-dispatch timing,
  /// --heartbeat progress lines) can wrap each event. Falls through to
  /// `sim_.run()` when both are dark — and since run() is exactly
  /// `while (step()) {}`, the instrumented loop executes the identical
  /// event sequence either way.
  void run_event_loop();
  void emit_heartbeat();

  void on_job_arrival(std::size_t workload_index);
  void request_dispatch();
  /// One dispatch wave: offer the racks in the offer queue's free set
  /// round-robin, skipping epoch-stamped declines of stable-decline
  /// schedulers (DESIGN.md §11).
  void dispatch();
  /// Dispatch-wave epilogue: audit sync point (light + scheduler +
  /// offer-queue coherence) and the 1 s heartbeat re-offer arming.
  void finish_dispatch_wave(bool placed_any);
  /// Scheduler-visible state changed: stamped declines may no longer hold.
  /// Called at every site that can change a pick_task outcome — grants,
  /// completions, kills, arrivals, plan clears, shuffle releases.
  void note_sched_state_changed() { offers_.note_state_changed(); }
  /// Re-derive the rack's free/full offer-queue membership after an
  /// allocate or release on it.
  void sync_offer_membership(RackId rack) {
    if (cluster_.free_slots(rack) > 0) {
      offers_.mark_free(rack);
    } else {
      offers_.mark_full(rack);
    }
  }
  void start_task(Job& job, Task& task, RackId rack,
                  std::int32_t grant_class);
  /// Register the driver's gauges with cfg_.obs->counters (ctor-time).
  void register_counters();

  void on_map_complete(Job& job, Task& task);
  void on_reduce_complete(Job& job, Task& task);

  // ----- fault injection ----------------------------------------------------
  /// Per-attempt fault draws for a just-placed task: straggle factor and,
  /// when configured, a kill timer strictly inside the attempt. No-op (and
  /// draw-free) for fault families not in the plan.
  void apply_attempt_faults(Job& job, Task& task);
  /// A container-kill timer fired: free the container, roll the task back
  /// to pending (its next attempt redraws faults), and undo the placement
  /// accounting so schedulers re-grant it — including OCAS's reduce plan.
  void on_task_killed(Job& job, Task& task);
  void begin_ocs_outage(const OcsOutageFault& outage);
  void end_ocs_outage(const OcsOutageFault& outage);
  /// Shared outage epilogue: every evicted flow (whole-fabric or single
  /// plane) finishes its remaining bytes over the EPS.
  void reroute_evicted(const std::vector<Flow*>& evicted);

  /// Materialize shuffle demand for every placed-but-undemanded reduce of
  /// `job` (idempotent; requires all maps done). The single entry point
  /// for overlap-mode releases, defer-mode whole-coflow releases, and the
  /// deadlock breaker's partial releases.
  void sync_reduce_demand(Job& job);
  /// Route a (new, grown, or reopened) flow into the right fabric.
  void route_flow(Job& job, Flow& flow, bool created);
  void on_flow_complete(Flow& flow);
  /// Last-resort recovery: partially release shuffles of deferred jobs that
  /// are mutually blocked on containers held by waiting reduces. Returns
  /// true if it changed anything.
  bool break_deadlock();

  /// Start the compute phase of `job`'s reduces on `rack` once every flow
  /// into the rack has drained (idempotent).
  void try_start_reduce_computes(Job& job, RackId rack);
  /// The job's last task completed: write its JobRecord into its arrival
  /// slot, detach it from the scheduler, fabric and auditor, and free it
  /// with its tasks, coflow and flows. Nothing refers to it afterwards.
  void finish_job(Job& job);
  [[nodiscard]] JobRecord make_record(const Job& job) const;
  void remove_running(RackId rack, Task& task);

  SimConfig cfg_;
  std::vector<JobSpec> workload_;
  std::unique_ptr<JobScheduler> scheduler_;

  Simulator sim_;
  Network net_;
  Cluster cluster_;
  Rng rng_;
  TremEstimator trem_;
  FaultInjector faults_;
  /// Null unless cfg.audit — every hook call is `if (audit_)`-guarded, so
  /// the unaudited hot path pays one branch per sync point.
  std::unique_ptr<InvariantAuditor> audit_;

  IdAllocator<TaskId> task_ids_;
  IdAllocator<FlowId> flow_ids_;

  /// An arrived, unfinished job and the RunMetrics::jobs slot its record
  /// goes to (its arrival ordinal, so records keep arrival order however
  /// jobs complete).
  struct LiveJob {
    std::unique_ptr<Job> job;
    std::size_t slot = 0;
  };
  /// Owns every live job; finish_job frees it. Memory follows the number
  /// of active jobs, not the trace length.
  std::unordered_map<JobId, LiveJob> live_jobs_;
  /// The same jobs in arrival order — the order dispatch offers them in.
  std::vector<Job*> active_jobs_;
  /// One record per workload job, indexed by arrival ordinal.
  std::vector<JobRecord> records_;
  std::size_t jobs_arrived_ = 0;

  std::vector<std::vector<Task*>> running_by_rack_;
  /// try_start_reduce_computes scratch (reused, no state between calls).
  std::vector<Task*> reduce_scratch_;
  std::unordered_set<FlowId> flows_in_fabric_;
  /// Reduce tasks per (job, rack) whose demand is already in the coflow:
  /// a flat per-rack vector (indexed by rack) per job, erased with the job.
  std::unordered_map<JobId, std::vector<std::int32_t>> demanded_;
  /// Task-completion events that a container kill may need to cancel.
  /// Populated only when the plan has container kills, so the common path
  /// never stores handles.
  std::unordered_map<TaskId, EventHandle> completion_events_;
  std::int64_t deadlock_breaks_ = 0;

  // Wall-clock heartbeat state (cfg_.heartbeat_sec > 0 only). The sliding
  // events/sec window is the delta since the previous beat.
  std::chrono::steady_clock::time_point wall_start_{};
  std::chrono::steady_clock::time_point next_beat_{};
  std::uint64_t last_beat_events_ = 0;
  double last_beat_wall_sec_ = 0.0;

  bool dispatch_scheduled_ = false;
  bool heartbeat_scheduled_ = false;
  std::int64_t pending_tasks_ = 0;
  std::int32_t dispatch_rotation_ = 0;
  /// Event-driven dispatch index (free-set membership + decline stamps).
  OfferQueue offers_;
  /// Dispatch waves that actually scanned (pending work existed), exported
  /// as RunMetrics::dispatch_waves.
  std::uint64_t dispatch_waves_ = 0;
  SimTime last_completion_ = SimTime::zero();
  std::int64_t jobs_completed_ = 0;
};

}  // namespace cosched
