#include "sim/driver.h"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/check.h"
#include "common/log.h"
#include "fabric/fabric_factory.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"

namespace cosched {

SimulationDriver::SimulationDriver(SimConfig cfg, std::vector<JobSpec> workload,
                                   std::unique_ptr<JobScheduler> scheduler)
    : cfg_(cfg),
      workload_(std::move(workload)),
      scheduler_(std::move(scheduler)),
      net_(sim_, cfg_.topo, make_fabric(sim_, cfg_.topo, cfg_.fabric)),
      cluster_(cfg_.topo),
      rng_(cfg_.seed),
      trem_(Rng(cfg_.seed).fork(0xbeef),
            cfg_.faults.trem_error_or(cfg_.trem_error_rate)),
      faults_(cfg_.faults, cfg_.seed),
      running_by_rack_(static_cast<std::size_t>(cfg_.topo.num_racks)),
      offers_(cfg.topo.num_racks) {
  COSCHED_CHECK(scheduler_ != nullptr);
  cfg_.topo.validate();
  // Every rack starts with all containers free.
  for (std::int32_t r = 0; r < cfg_.topo.num_racks; ++r) {
    offers_.mark_free(RackId{r});
  }
  if (cfg_.audit) {
    audit_ = std::make_unique<InvariantAuditor>(sim_, net_, cluster_,
                                                net_.fabric(), cfg_.topo);
    // The cct-lower-bound check holds whenever the fabric's per-setup
    // delay is what the bound formula assumes. Reconfiguration jitter
    // draws delta * U[1-pct, 1+pct] per setup — possibly *below* the base
    // delta — so the bound is no longer a guarantee under that fault.
    audit_->set_cct_bound_check(!faults_.has_reconfig_jitter());
    net_.fabric().set_self_audit(true);
  }
  net_.fabric().set_on_flow_complete(
      [this](Flow& f) { on_flow_complete(f); });
  if (faults_.has_reconfig_jitter()) {
    net_.fabric().set_reconfig_delay_provider([this] {
      return faults_.jittered_reconfig_delay(cfg_.topo.ocs_reconfig_delay);
    });
  }
  if (cfg_.obs != nullptr) {
    net_.fabric().set_trace(&cfg_.obs->trace);
    net_.fabric().set_observability(cfg_.obs);
    register_counters();
  }
}

void SimulationDriver::register_counters() {
  CounterRegistry& c = cfg_.obs->counters;
  c.add_gauge("sim.events_live",
              [this] { return static_cast<double>(sim_.events_pending()); });
  c.add_gauge("sim.events_raw", [this] {
    return static_cast<double>(sim_.events_pending_raw());
  });
  c.add_gauge("jobs.active",
              [this] { return static_cast<double>(active_jobs_.size()); });
  c.add_gauge("jobs.retained",
              [this] { return static_cast<double>(live_jobs_.size()); });
  c.add_gauge("tasks.pending",
              [this] { return static_cast<double>(pending_tasks_); });
  const double total_slots = static_cast<double>(
      cfg_.topo.num_racks * cfg_.topo.slots_per_rack());
  c.add_gauge("cluster.containers_used", [this, total_slots] {
    return total_slots - static_cast<double>(cluster_.total_free_slots());
  });
  for (std::int32_t r = 0; r < cfg_.topo.num_racks; ++r) {
    c.add_gauge("cluster.rack_used." + std::to_string(r), [this, r] {
      return static_cast<double>(cluster_.used_slots(RackId{r}));
    });
  }
  c.add_gauge("ocs.circuits_active", [this] {
    return static_cast<double>(net_.fabric().active_circuits());
  });
  c.add_gauge("ocs.utilization", [this] {
    return static_cast<double>(net_.fabric().active_circuits()) /
           static_cast<double>(cfg_.topo.num_racks);
  });
  c.add_gauge("ocs.transfers_active", [this] {
    return static_cast<double>(net_.fabric().active_transfers());
  });
  c.add_gauge("ocs.gb_in_flight", [this] {
    return net_.fabric().bytes_in_flight().in_gigabytes();
  });
  c.add_gauge("coflows.active", [this] {
    return static_cast<double>(net_.fabric().active_coflows());
  });
  c.add_gauge("eps.flows_active", [this] {
    return static_cast<double>(net_.eps().active_flows());
  });
  c.add_gauge("eps.gb_in_flight",
              [this] { return net_.eps().bytes_in_flight().in_gigabytes(); });
  c.add_gauge("eps.replans", [this] {
    return static_cast<double>(net_.eps().replans());
  });
  c.add_gauge("eps.groups_active", [this] {
    return static_cast<double>(net_.eps().active_groups());
  });
  c.add_gauge("sim.queue_compactions", [this] {
    return static_cast<double>(sim_.queue_compactions());
  });
}

SchedContext SimulationDriver::make_context() {
  return SchedContext{sim_.now(), cfg_.topo, cluster_,
                      active_jobs_, *this,   rng_,
                      cfg_.reduce_slowstart,  cfg_.obs,
                      cfg_.faults.trem_error_or(cfg_.trem_error_rate) > 0.0,
                      &net_.fabric()};
}

RunMetrics SimulationDriver::run() {
  // Per-run wall-clock capture: when the global PerfMonitor is enabled and
  // an obs bundle is attached, bracket this run with the thread-local
  // capture so the bundle's perf delta covers exactly this run's thread —
  // no conflation across repetitions or with parallel workers sharing the
  // global registry.
  const bool capture_perf = cfg_.obs != nullptr && PerfMonitor::enabled();
  if (capture_perf) PerfMonitor::begin_capture(&cfg_.obs->perf);

  if (cfg_.heartbeat_sec > 0.0) {
    wall_start_ = std::chrono::steady_clock::now();
    next_beat_ = wall_start_ + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(
                                       cfg_.heartbeat_sec));
  }

  records_.resize(workload_.size());
  for (std::size_t i = 0; i < workload_.size(); ++i) {
    sim_.schedule_at(workload_[i].arrival, [this, i] { on_job_arrival(i); });
  }
  for (const OcsOutageFault& o : faults_.plan().ocs_outages) {
    sim_.schedule_at(o.at, [this, o] { begin_ocs_outage(o); });
    sim_.schedule_at(o.at + o.dur, [this, o] { end_ocs_outage(o); });
  }
  while (true) {
    // (Re-)arm the counter sampler: it disarms itself whenever the queue
    // would otherwise drain, so each recovery round needs a fresh arm.
    if (cfg_.obs != nullptr) cfg_.obs->counters.arm(sim_);
    run_event_loop();
    if (jobs_completed_ == static_cast<std::int64_t>(workload_.size())) break;
    COSCHED_CHECK_MSG(break_deadlock(),
                      "simulation drained with "
                          << static_cast<std::int64_t>(workload_.size()) -
                                 jobs_completed_
                          << " jobs incomplete and no recovery possible");
  }
  if (audit_) audit_->final_check();
  if (cfg_.heartbeat_sec > 0.0) emit_heartbeat();  // final summary beat
  if (capture_perf) PerfMonitor::end_capture();

  RunMetrics m;
  m.scheduler = scheduler_->name();
  m.seed = cfg_.seed;
  m.makespan = last_completion_ - SimTime::zero();
  m.ocs_bytes = net_.ocs_bytes_transferred();
  m.eps_bytes = net_.eps_bytes_transferred();
  m.local_bytes = net_.local_bytes_transferred();
  m.events_executed = sim_.events_executed();
  m.dispatch_waves = dispatch_waves_;
  m.faults = faults_.stats();
  // Every container must be back: killed tasks release their slots and
  // every retry ran to completion.
  COSCHED_CHECK_MSG(cluster_.total_free_slots() ==
                        cfg_.topo.num_racks * cfg_.topo.slots_per_rack(),
                    "containers leaked at end of run");
  m.jobs = std::move(records_);
  return m;
}

void SimulationDriver::run_event_loop() {
  const bool monitored = PerfMonitor::enabled();
  const bool beating = cfg_.heartbeat_sec > 0.0;
  if (!monitored && !beating) {
    // Dark path: identical to the instrumented loop below, since run() is
    // exactly `while (step()) {}` — just without the per-event overhead.
    sim_.run();
    return;
  }
  // The wall clock is consulted once per kBeatCheckStride events, not per
  // event, so heartbeating costs ~nothing even at 100k-job scale.
  constexpr std::uint64_t kBeatCheckStride = 1024;
  std::uint64_t until_check = kBeatCheckStride;
  while (true) {
    bool more;
    if (monitored) {
      const std::size_t pending = sim_.events_pending();
      PerfScope perf(PerfPhase::kEventDispatch);
      perf.set_size(pending);
      more = sim_.step();
    } else {
      more = sim_.step();
    }
    if (!more) break;
    if (beating && --until_check == 0) {
      until_check = kBeatCheckStride;
      if (std::chrono::steady_clock::now() >= next_beat_) emit_heartbeat();
    }
  }
}

void SimulationDriver::emit_heartbeat() {
  const auto now = std::chrono::steady_clock::now();
  const double wall_sec =
      std::chrono::duration<double>(now - wall_start_).count();
  const std::uint64_t events = sim_.events_executed();
  const double window_sec = wall_sec - last_beat_wall_sec_;
  const double ev_per_sec =
      window_sec > 0.0
          ? static_cast<double>(events - last_beat_events_) / window_sec
          : 0.0;
  // One formatted write so concurrent repetitions interleave per line, not
  // per token.
  std::ostringstream line;
  line << "[heartbeat] wall=" << std::fixed << std::setprecision(1)
       << wall_sec << "s sim=" << sim_.now().sec() << "s events=" << events
       << " ev/s=" << std::setprecision(0) << ev_per_sec
       << " jobs=" << jobs_completed_ << "/" << workload_.size()
       << " live_jobs=" << live_jobs_.size()
       << " rss_hwm_mb=" << rss_high_water_bytes() / (1024 * 1024) << "\n";
  std::ostream& os =
      cfg_.heartbeat_out != nullptr ? *cfg_.heartbeat_out : std::cerr;
  os << line.str() << std::flush;
  last_beat_events_ = events;
  last_beat_wall_sec_ = wall_sec;
  next_beat_ =
      now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg_.heartbeat_sec));
}

void SimulationDriver::on_job_arrival(std::size_t workload_index) {
  // The job takes its spec over: the workload keeps no per-task data for
  // jobs that have arrived.
  JobSpec& spec = workload_[workload_index];
  const JobId id = spec.id;
  auto owned = std::make_unique<Job>(std::move(spec),
                                     cfg_.topo.elephant_threshold, task_ids_,
                                     CoflowId{id.value()});
  Job* job = owned.get();
  const bool inserted =
      live_jobs_.emplace(id, LiveJob{std::move(owned), jobs_arrived_++}).second;
  COSCHED_CHECK_MSG(inserted, "job " << id << " arrived twice");
  active_jobs_.push_back(job);
  pending_tasks_ += job->spec().num_maps + job->spec().num_reduces;

  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kJobArrival,
                            .at = sim_.now(),
                            .job = job->id()});
  }
  SchedContext ctx = make_context();
  scheduler_->on_job_submitted(*job, ctx);
  COSCHED_CHECK_MSG(job->has_block_placement(),
                    "scheduler failed to place input of job " << job->id());
  note_sched_state_changed();
  request_dispatch();
}

void SimulationDriver::request_dispatch() {
  if (dispatch_scheduled_) return;
  if (pending_tasks_ == 0 || cluster_.total_free_slots() == 0) return;
  dispatch_scheduled_ = true;
  sim_.schedule_after(Duration::zero(), [this] {
    dispatch_scheduled_ = false;
    dispatch();
  });
}

void SimulationDriver::dispatch() {
  PerfScope perf(PerfPhase::kDriverDispatch);
  perf.set_size(static_cast<std::uint64_t>(cfg_.topo.num_racks));
  if (pending_tasks_ == 0) return;
  ++dispatch_waves_;
  SchedContext ctx = make_context();
  // One container per rack per pass, racks visited round-robin from a
  // rotating start: this models YARN granting containers as NodeManagers
  // across the cluster heartbeat, rather than draining one rack at a time
  // (which would artificially clump a job's tasks onto the first rack).
  const std::int32_t start = dispatch_rotation_++ % cfg_.topo.num_racks;
  // The free-set iteration visits exactly the racks with a free container,
  // in round-robin order from `start`, as a scan over every rack would.
  // The decline-stamp skip drops only pick_task calls that are guaranteed
  // (declines_are_stable) to be side-effect-free nullopt replays. Grants
  // bump the epoch, so a pass after any grant re-offers every rack that
  // declined before that grant — exactly the racks whose answer may have
  // changed.
  const bool stable = scheduler_->declines_are_stable();
  // A still-current global decline stamp (heartbeat re-offer with no state
  // change in between) means every pick this wave would be a pure nullopt
  // replay: skip them all. finish_dispatch_wave re-arms the heartbeat
  // exactly as the all-decline wave it stands in for would have.
  if (stable && offers_.declined_globally_at_current_epoch()) {
    finish_dispatch_wave(/*placed_any=*/false);
    return;
  }
  bool progress = true;
  bool placed_any = false;
  bool global_decline = false;
  while (progress && pending_tasks_ > 0 && !global_decline) {
    progress = false;
    offers_.for_each_free_from(start, [&](RackId rack) {
      if (pending_tasks_ == 0) return false;
      if (stable && offers_.declined_at_current_epoch(rack)) return true;
      auto choice = scheduler_->pick_task(rack, ctx);
      if (!choice.has_value()) {
        offers_.note_declined(rack);
        // A rack-independent decline settles the remaining racks: each
        // would be the identical side-effect-free nullopt. The epoch cannot
        // change across declines, so the conclusion holds for the rest of
        // the wave.
        if (stable && scheduler_->last_decline_was_global()) {
          offers_.note_declined_globally();
          global_decline = true;
          return false;
        }
        return true;
      }
      start_task(*choice->job, *choice->task, rack, choice->priority_class);
      progress = true;
      placed_any = true;
      return true;
    });
  }
  finish_dispatch_wave(placed_any);
}

void SimulationDriver::finish_dispatch_wave(bool placed_any) {
  if (audit_) {
    audit_->check_light();
    audit_->check_scheduler(*scheduler_, active_jobs_);
    audit_->check_offer_queue(offers_.audit(cluster_));
    audit_->check_job_retention(live_jobs_.size(), active_jobs_.size());
  }

  // A scheduler may decline offers it could accept later without any
  // triggering event (delay scheduling waiting for locality). Re-offer on
  // a heartbeat, as YARN NodeManagers would. The re-offer wave only visits
  // the declining racks (the free set) — full racks are never touched.
  if (!placed_any && pending_tasks_ > 0 && cluster_.total_free_slots() > 0 &&
      !heartbeat_scheduled_) {
    heartbeat_scheduled_ = true;
    sim_.schedule_after(Duration::seconds(1), [this] {
      heartbeat_scheduled_ = false;
      dispatch();
    });
  }
}

void SimulationDriver::start_task(Job& job, Task& task, RackId rack,
                                  std::int32_t grant_class) {
  const NodeId node = cluster_.allocate_slot(rack);
  sync_offer_membership(rack);
  task.place(rack, node, sim_.now());
  running_by_rack_[static_cast<std::size_t>(rack.value())].push_back(&task);
  --pending_tasks_;
  note_sched_state_changed();

  const bool is_map = task.kind() == TaskKind::kMap;
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kContainerGrant,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = rack,
                            .a = grant_class});
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskStart,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = rack,
                            .a = is_map ? 0 : 1});
    cfg_.obs->decisions.record(GrantDecision{.at = sim_.now(),
                                             .rack = rack,
                                             .job = job.id(),
                                             .task = task.id(),
                                             .user = job.spec().user,
                                             .is_map = is_map,
                                             .ocas_class = grant_class});
  }
  // Audit before note_map_placed/note_reduce_placed advance the job's
  // per-rack counters, so the class-1 check still sees the pre-grant plan
  // capacity this grant was admitted against.
  if (audit_) audit_->on_container_grant(job, task, rack, grant_class);

  if (task.kind() == TaskKind::kMap) {
    job.note_map_placed(rack);
    scheduler_->on_task_placed(job, task, rack);
    if (!job.map_local_on(task.index(), rack)) {
      // Remote read: fetching the block over the network, modeled as a
      // deterministic NIC-limited delay (small flows are not worth pushing
      // through the fluid fabric; all schedulers pay the same price).
      task.set_read_penalty(
          transfer_time(job.spec().block_size(), cfg_.topo.server_nic));
    }
    apply_attempt_faults(job, task);
    Job* jp = &job;
    Task* tp = &task;
    EventHandle done = sim_.schedule_after(
        task.run_duration(), [this, jp, tp] { on_map_complete(*jp, *tp); });
    if (faults_.has_container_kill()) {
      completion_events_[task.id()] = std::move(done);
    }
    return;
  }

  // Reduce task: occupies the container; shuffle demand materializes per
  // the scheduler's reduce semantics.
  job.note_reduce_placed(rack);
  scheduler_->on_task_placed(job, task, rack);
  apply_attempt_faults(job, task);
  if (scheduler_->defers_reduces()) {
    COSCHED_CHECK_MSG(job.all_maps_done(),
                      "deferred scheduler placed a reduce before maps done");
    // Release the coflow as one unit once every reduce container is
    // granted (Section IV-A). A job whose shuffle was already partially
    // released by the deadlock breaker keeps streaming incrementally.
    if (job.all_reduces_placed() || job.shuffle_released()) {
      sync_reduce_demand(job);
    }
  } else if (job.all_maps_done()) {
    sync_reduce_demand(job);
  }
  // A retried reduce can land on a rack whose fetches already drained;
  // sync_reduce_demand then has no new demand to materialize for the rack
  // and will not poke it, so check for an immediately-startable compute
  // here. Idempotent and guard-gated: a no-op on every non-retry placement.
  if (job.shuffle_released()) try_start_reduce_computes(job, rack);
}

void SimulationDriver::remove_running(RackId rack, Task& task) {
  auto& v = running_by_rack_[static_cast<std::size_t>(rack.value())];
  auto it = std::find(v.begin(), v.end(), &task);
  COSCHED_CHECK(it != v.end());
  v.erase(it);
}

void SimulationDriver::on_map_complete(Job& job, Task& task) {
  task.complete(sim_.now());
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskFinish,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = task.rack(),
                            .a = 0});
  }
  remove_running(task.rack(), task);
  cluster_.release_slot(task.rack(), task.node());
  sync_offer_membership(task.rack());
  note_sched_state_changed();
  if (audit_) audit_->on_container_release(job, task, task.rack());
  trem_.forget(task.id());
  if (faults_.has_container_kill()) completion_events_.erase(task.id());
  job.note_map_completed(task.rack(), job.spec().map_output_size());
  scheduler_->on_task_completed(job, task, task.rack());

  if (job.all_maps_done()) {
    SchedContext ctx = make_context();
    scheduler_->on_maps_completed(job, ctx);
    if (audit_) audit_->on_reduce_plan(job);
    if (job.spec().num_reduces == 0) {
      finish_job(job);
    } else if (!scheduler_->defers_reduces()) {
      sync_reduce_demand(job);
    }
  }
  request_dispatch();
}

void SimulationDriver::sync_reduce_demand(Job& job) {
  COSCHED_CHECK(job.all_maps_done());
  note_sched_state_changed();
  std::vector<std::int32_t>& demanded = demanded_[job.id()];
  demanded.resize(static_cast<std::size_t>(cfg_.topo.num_racks), 0);
  const bool first_release = !job.shuffle_released();
  job.mark_shuffle_released();
  job.coflow().mark_released(sim_.now());
  std::vector<RackId> touched;
  for (const auto& [rack, placed] : job.reduce_placed_by_rack()) {
    const auto ri = static_cast<std::size_t>(rack.value());
    const std::int32_t missing = placed - demanded[ri];
    if (missing <= 0) continue;
    demanded[ri] = placed;
    touched.push_back(rack);
    const double share = static_cast<double>(missing) /
                         static_cast<double>(job.spec().num_reduces);
    for (const auto& [src, output] : job.map_output_by_rack()) {
      const DataSize demand = output * share;
      if (demand.is_zero()) continue;
      auto [flow, created] =
          job.coflow().add_demand(flow_ids_, src, rack, demand);
      route_flow(job, *flow, created);
    }
  }
  if (first_release && cfg_.obs != nullptr) {
    cfg_.obs->trace.record(
        {.kind = TraceEventKind::kCoflowRelease,
         .at = sim_.now(),
         .job = job.id(),
         .a = static_cast<std::int64_t>(job.coflow().flows().size()),
         .b = job.coflow().total_demand().in_gigabytes()});
  }
  for (RackId rack : touched) try_start_reduce_computes(job, rack);
}

void SimulationDriver::route_flow(Job& job, Flow& flow, bool created) {
  if (created) {
    flow.set_path(net_.classify(flow));
    COSCHED_DEBUG() << "job " << job.id() << " flow " << flow.src() << "->"
                    << flow.dst() << " " << flow.size() << " via "
                    << to_string(flow.path());
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kFlowRouted,
                              .at = sim_.now(),
                              .job = flow.job(),
                              .flow = flow.id(),
                              .src = flow.src(),
                              .dst = flow.dst(),
                              .a = static_cast<std::int64_t>(flow.path()),
                              .b = flow.size().in_gigabytes()});
    }
    flows_in_fabric_.insert(flow.id());
    if (audit_) audit_->on_flow_routed(job, flow);
    if (flow.path() == FlowPath::kOcs) {
      net_.fabric().submit(job.coflow(), flow);
    } else {
      net_.eps().start_flow(flow, [this](Flow& f) { on_flow_complete(f); });
    }
    return;
  }
  if (flows_in_fabric_.count(flow.id()) > 0) {
    // Demand grew while in flight; the path sticks (a flow that started
    // small on the EPS does not get promoted — exactly the aggregation
    // failure of overlapping schedulers the paper describes).
    if (audit_) audit_->on_flow_routed(job, flow);
    if (flow.path() == FlowPath::kOcs) {
      net_.fabric().demand_added(flow);
    } else {
      net_.eps().demand_added(flow);
    }
    return;
  }
  // Reopened: the flow had drained, and a late reduce added more demand.
  flows_in_fabric_.insert(flow.id());
  if (flow.path() == FlowPath::kOcs && !net_.ocs_available()) {
    // The flow rode the OCS before, but the OCS is down now: degrade the
    // re-fetch onto the EPS rather than queueing behind the outage.
    flow.set_path(FlowPath::kEps);
  }
  if (audit_) audit_->on_flow_routed(job, flow);
  if (flow.path() == FlowPath::kOcs) {
    net_.fabric().submit(job.coflow(), flow);
  } else {
    net_.eps().start_flow(flow, [this](Flow& f) { on_flow_complete(f); });
  }
}

void SimulationDriver::on_flow_complete(Flow& flow) {
  if (audit_) audit_->on_flow_completed(flow);
  flows_in_fabric_.erase(flow.id());
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kFlowComplete,
                            .at = sim_.now(),
                            .job = flow.job(),
                            .flow = flow.id(),
                            .src = flow.src(),
                            .dst = flow.dst(),
                            .a = static_cast<std::int64_t>(flow.path())});
  }
  Job* job = live_jobs_.at(flow.job()).job.get();
  if (audit_) audit_->check_open_flows(*job);
  if (job->all_maps_done() && job->all_reduces_placed() &&
      job->coflow().all_flows_complete() && !job->coflow().completed()) {
    job->coflow().mark_completed(sim_.now());
  }
  try_start_reduce_computes(*job, flow.dst());
}

void SimulationDriver::try_start_reduce_computes(Job& job, RackId rack) {
  if (!job.all_maps_done() || !job.shuffle_released()) return;
  if (!job.coflow().flows_into_done(rack)) return;
  // Only the job's reduces running on this rack can start: take them from
  // the rack's running list and visit them in task-index order, the order
  // of a walk over job.reduces().
  std::vector<Task*>& waiting = reduce_scratch_;
  waiting.clear();
  for (Task* t : running_by_rack_[static_cast<std::size_t>(rack.value())]) {
    if (t->job() == job.id() && t->kind() == TaskKind::kReduce &&
        t->state() == TaskState::kRunning && !t->compute_started()) {
      waiting.push_back(t);
    }
  }
  std::sort(waiting.begin(), waiting.end(), [](const Task* a, const Task* b) {
    return a->index() < b->index();
  });
  for (Task* tp : waiting) {
    Task& t = *tp;
    t.begin_compute(sim_.now());
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kReduceComputeStart,
                              .at = sim_.now(),
                              .job = job.id(),
                              .task = t.id(),
                              .src = rack});
    }
    Job* jp = &job;
    EventHandle done = sim_.schedule_after(
        t.run_duration(), [this, jp, tp] { on_reduce_complete(*jp, *tp); });
    if (faults_.has_container_kill()) {
      completion_events_[t.id()] = std::move(done);
    }
  }
}

void SimulationDriver::apply_attempt_faults(Job& job, Task& task) {
  if (faults_.has_straggler()) {
    const double multiplier = faults_.draw_straggler_multiplier();
    if (multiplier != 1.0) {
      task.set_straggle_factor(multiplier);
      if (cfg_.obs != nullptr) {
        cfg_.obs->trace.record({.kind = TraceEventKind::kTaskStraggle,
                                .at = sim_.now(),
                                .job = job.id(),
                                .task = task.id(),
                                .src = task.rack(),
                                .b = multiplier});
        cfg_.obs->decisions.record(FaultDecision{.at = sim_.now(),
                                                 .action = FaultAction::kStraggle,
                                                 .job = job.id(),
                                                 .task = task.id(),
                                                 .rack = task.rack(),
                                                 .value = multiplier});
      }
    }
  }
  // A zero-length attempt completes at its own placement instant; there is
  // no interior point to kill it at, so it never draws.
  if (faults_.has_container_kill() &&
      task.run_duration() > Duration::zero()) {
    if (const std::optional<double> frac = faults_.draw_kill_point()) {
      Job* jp = &job;
      Task* tp = &task;
      // frac < 1 puts the kill strictly before this attempt's completion
      // (a reduce computes no earlier than its placement), so a killed
      // attempt can never also complete.
      sim_.schedule_after(task.run_duration() * *frac,
                          [this, jp, tp] { on_task_killed(*jp, *tp); });
    }
  }
}

void SimulationDriver::on_task_killed(Job& job, Task& task) {
  COSCHED_CHECK(task.state() == TaskState::kRunning);
  const bool is_map = task.kind() == TaskKind::kMap;
  const RackId rack = task.rack();
  const double frac = task.run_duration() > Duration::zero()
                          ? (sim_.now() - task.placed_at()) /
                                task.run_duration()
                          : 0.0;
  if (auto it = completion_events_.find(task.id());
      it != completion_events_.end()) {
    it->second.cancel();
    completion_events_.erase(it);
  }
  remove_running(rack, task);
  cluster_.release_slot(rack, task.node());
  sync_offer_membership(rack);
  note_sched_state_changed();
  if (audit_) audit_->on_container_release(job, task, rack);
  trem_.forget(task.id());
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskKilled,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = rack,
                            .a = is_map ? 0 : 1});
    cfg_.obs->decisions.record(FaultDecision{
        .at = sim_.now(),
        .action = is_map ? FaultAction::kKillMap : FaultAction::kKillReduce,
        .job = job.id(),
        .task = task.id(),
        .rack = rack,
        .value = frac});
  }
  task.reset_for_retry();
  if (is_map) {
    job.requeue_map(task.index());
    ++faults_.stats().maps_killed;
  } else {
    job.requeue_reduce(task.index(), rack);
    ++faults_.stats().reduces_killed;
  }
  scheduler_->on_task_requeued(job, task, rack);
  ++pending_tasks_;
  request_dispatch();
}

void SimulationDriver::reroute_evicted(const std::vector<Flow*>& evicted) {
  // Degrade gracefully: everything the outage evicted — queued or
  // mid-transfer — finishes its remaining bytes over the EPS.
  for (Flow* flow : evicted) {
    ++faults_.stats().flows_evicted;
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kFlowEvicted,
                              .at = sim_.now(),
                              .job = flow->job(),
                              .flow = flow->id(),
                              .src = flow->src(),
                              .dst = flow->dst(),
                              .b = flow->remaining_bits()});
      cfg_.obs->decisions.record(FaultDecision{.at = sim_.now(),
                                               .action = FaultAction::kFlowEvicted,
                                               .job = flow->job(),
                                               .flow = flow->id(),
                                               .value = flow->remaining_bits()});
    }
    flow->set_path(FlowPath::kEps);
    net_.eps().start_flow(*flow, [this](Flow& f) { on_flow_complete(f); });
  }
}

void SimulationDriver::begin_ocs_outage(const OcsOutageFault& outage) {
  ++faults_.stats().ocs_outages;
  faults_.stats().ocs_downtime_sec += outage.dur.sec();
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kOcsOutage,
                            .at = sim_.now(),
                            .a = 1,
                            .b = outage.dur.sec()});
    cfg_.obs->decisions.record(FaultDecision{.at = sim_.now(),
                                             .action = FaultAction::kOutageBegin,
                                             .value = outage.dur.sec()});
  }
  if (outage.plane >= 0 && outage.plane < net_.fabric().num_planes()) {
    // Plane-targeted: only that plane's in-flight transfers are evicted;
    // queued demand stays (the surviving planes serve it), classification
    // is unchanged, and allocation skips the plane until it heals. A plane
    // index the fabric doesn't have (plane=3 on ocs:2, any plane= on
    // rotor/mesh/ring) degrades to a whole-fabric outage below, so fault
    // plans stay composable with every --fabric choice.
    reroute_evicted(net_.fabric().begin_plane_outage(outage.plane));
    if (audit_) audit_->check_light();
    return;
  }
  net_.begin_ocs_outage();
  reroute_evicted(net_.fabric().evict_all());
  if (audit_) audit_->on_outage_begin();
}

void SimulationDriver::end_ocs_outage(const OcsOutageFault& outage) {
  if (outage.plane >= 0 && outage.plane < net_.fabric().num_planes()) {
    net_.fabric().end_plane_outage(outage.plane);
    if (audit_) audit_->check_light();
  } else {
    net_.end_ocs_outage();
    if (audit_) audit_->on_outage_end();
  }
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kOcsOutage,
                            .at = sim_.now(),
                            .a = 0,
                            .b = outage.dur.sec()});
    cfg_.obs->decisions.record(FaultDecision{
        .at = sim_.now(), .action = FaultAction::kOutageEnd});
  }
}

void SimulationDriver::on_reduce_complete(Job& job, Task& task) {
  task.complete(sim_.now());
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskFinish,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = task.rack(),
                            .a = 1});
  }
  remove_running(task.rack(), task);
  cluster_.release_slot(task.rack(), task.node());
  sync_offer_membership(task.rack());
  note_sched_state_changed();
  if (audit_) audit_->on_container_release(job, task, task.rack());
  trem_.forget(task.id());
  if (faults_.has_container_kill()) completion_events_.erase(task.id());
  job.note_reduce_completed();
  scheduler_->on_task_completed(job, task, task.rack());
  if (job.work_done()) finish_job(job);
  request_dispatch();
}

void SimulationDriver::finish_job(Job& job) {
  COSCHED_CHECK(!job.completed());
  job.mark_completed(sim_.now());
  if (audit_) audit_->on_job_finished(job);
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kJobComplete,
                            .at = sim_.now(),
                            .job = job.id()});
  }
  last_completion_ = std::max(last_completion_, sim_.now());
  ++jobs_completed_;
  demanded_.erase(job.id());
  auto it = std::find(active_jobs_.begin(), active_jobs_.end(), &job);
  COSCHED_CHECK(it != active_jobs_.end());
  active_jobs_.erase(it);
  scheduler_->on_job_completed(job);
  note_sched_state_changed();

  // The auditor already insists on this; freeing the flows makes it a hard
  // precondition in every build, since a fabric still holding one would
  // hold a dangling pointer.
  COSCHED_CHECK_MSG(job.coflow().all_flows_complete(),
                    "job " << job.id() << " finished with shuffle in flight");
  auto live = live_jobs_.find(job.id());
  COSCHED_CHECK(live != live_jobs_.end());
  records_[live->second.slot] = make_record(job);
  net_.fabric().retire_coflow(job.coflow());
  live_jobs_.erase(live);  // frees `job`
}

JobRecord SimulationDriver::make_record(const Job& job) const {
  JobRecord rec;
  rec.id = job.id();
  rec.user = job.spec().user;
  rec.shuffle_heavy = job.shuffle_heavy();
  rec.has_shuffle = job.has_shuffle();
  rec.arrival = job.spec().arrival;
  rec.completion = job.completion_time();
  rec.jct = job.completion_time() - job.spec().arrival;
  if (rec.has_shuffle) {
    COSCHED_CHECK(job.coflow().completed());
    rec.cct = job.coflow().cct();
    rec.shuffle_bytes = job.coflow().total_demand();
    // The *fabric's* bound: on mesh/ring/rotor the old ocs_link/
    // reconfig_delay formula reported a bound for a fabric the run never
    // used (docs/FABRICS.md, "The bound contract").
    rec.cct_lower_bound =
        net_.fabric().cct_lower_bound(job.coflow().cross_rack_matrix());
    rec.all_flows_ocs = true;
    for (const auto& f : job.coflow().flows()) {
      // Same-rack flows never enter the cross-rack matrix the bound is
      // computed over; only an EPS detour can invalidate the bound.
      if (f->path() == FlowPath::kLocal) continue;
      if (f->path() != FlowPath::kOcs) rec.all_flows_ocs = false;
    }
  }
  for (const auto& [rack, output] : job.map_output_by_rack()) {
    rec.map_output_bytes += output;
  }
  for (const Task& t : job.maps()) {
    rec.last_map_completion =
        std::max(rec.last_map_completion, t.completed_at());
  }
  for (const Task& t : job.reduces()) {
    rec.first_reduce_placement =
        std::min(rec.first_reduce_placement, t.placed_at());
  }
  return rec;
}

bool SimulationDriver::break_deadlock() {
  // The event queue drained with jobs incomplete: deferred jobs are holding
  // containers with waiting reduces while their remaining reduces cannot be
  // placed (plans pointing at saturated racks, or mutual container waits).
  // Recovery: abandon plans and partially release placed reduces so they
  // fetch, compute, and free their containers.
  bool changed = false;
  for (Job* job : active_jobs_) {
    if (!job->all_maps_done() || job->spec().num_reduces == 0) continue;
    if (job->all_reduces_placed()) continue;
    if (job->has_reduce_plan()) {
      job->clear_reduce_plan();
      scheduler_->on_reduce_plan_cleared(*job);
      changed = true;
    }
    if (job->reduces_placed() > 0 && !job->shuffle_released()) {
      sync_reduce_demand(*job);
      changed = true;
    }
  }
  if (changed) {
    note_sched_state_changed();
    ++deadlock_breaks_;
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kDeadlockBreak,
                              .at = sim_.now(),
                              .a = deadlock_breaks_});
    }
    COSCHED_WARN() << "deadlock breaker engaged (" << deadlock_breaks_
                   << " total)";
    request_dispatch();
  }
  return changed;
}

Duration SimulationDriver::estimate_availability(RackId rack,
                                                 std::int64_t count) {
  PerfScope perf(PerfPhase::kEstimateAvailability);
  COSCHED_CHECK(count > 0);
  if (count > cfg_.topo.slots_per_rack()) return Duration::infinity();
  const std::int64_t free = cluster_.free_slots(rack);
  if (free >= count) return Duration::zero();
  const std::int64_t need = count - free;

  std::vector<double> remaining_sec;
  const auto& running = running_by_rack_[static_cast<std::size_t>(rack.value())];
  perf.set_size(running.size());
  remaining_sec.reserve(running.size());
  for (Task* t : running) {
    double est;
    if (t->compute_started()) {
      est = trem_.estimate(*t, sim_.now()).sec();
    } else {
      // A reduce still fetching: remaining = slowest incoming flow at an
      // optimistic rate plus the compute phase, all through the same
      // error model.
      const Job* job = live_jobs_.at(t->job()).job.get();
      double fetch_sec = 0.0;
      for (const auto& f : job->coflow().flows()) {
        if (f->dst() != rack || f->completed()) continue;
        const Bandwidth hint =
            f->rate().in_bits_per_sec() > 0.0
                ? f->rate()
                : (f->path() == FlowPath::kOcs ? cfg_.topo.ocs_link
                                               : cfg_.topo.eps_rack_link());
        fetch_sec = std::max(fetch_sec,
                             f->remaining_bits() / hint.in_bits_per_sec());
      }
      est = (t->compute_duration().sec() + fetch_sec) *
            trem_.factor_for(t->id());
    }
    remaining_sec.push_back(std::max(est, 0.0));
  }
  if (static_cast<std::int64_t>(remaining_sec.size()) < need) {
    // Should not happen (free + running == slots), but stay safe.
    return Duration::infinity();
  }
  std::nth_element(remaining_sec.begin(),
                   remaining_sec.begin() + (need - 1), remaining_sec.end());
  return Duration::seconds(remaining_sec[static_cast<std::size_t>(need - 1)]);
}

}  // namespace cosched
