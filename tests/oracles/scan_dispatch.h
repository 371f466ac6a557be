// The all-racks dispatch scan, as a scheduler wrapper.
//
// The driver's offer-queue wave skips a pick_task call only when the
// scheduler promises stable declines (declines_are_stable) or reports a
// rack-independent one (last_decline_was_global). ScanDispatchScheduler
// forwards every call to the scheduler it wraps but makes neither promise,
// so every wave offers every free rack, pass after pass, in round-robin
// order from the rotating start — the call sequence of a scan over all
// racks that skips the full ones. Two checks make that sequence exactly
// the scan's: OfferQueueProperty pins the free-set visit order against a
// brute-force scan, and the auditor's check_offer_queue pins "free set =
// racks with free slots" at every wave, so run the wrapped side audited.
//
// Test-only: the dispatch differential suite, the fuzzer, the dispatch
// micro-bench and tests/oracle_diff link this through cosched_oracles.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "sim/experiment.h"

namespace cosched {

class ScanDispatchScheduler final : public JobScheduler {
 public:
  explicit ScanDispatchScheduler(std::unique_ptr<JobScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool defers_reduces() const override {
    return inner_->defers_reduces();
  }
  void on_job_submitted(Job& job, SchedContext& ctx) override {
    inner_->on_job_submitted(job, ctx);
  }
  void on_maps_completed(Job& job, SchedContext& ctx) override {
    inner_->on_maps_completed(job, ctx);
  }
  std::optional<TaskChoice> pick_task(RackId rack,
                                      SchedContext& ctx) override {
    return inner_->pick_task(rack, ctx);
  }
  // The two promises the scan never relies on.
  [[nodiscard]] bool declines_are_stable() const override { return false; }
  [[nodiscard]] bool last_decline_was_global() const override {
    return false;
  }

  void on_task_placed(Job& job, Task& task, RackId rack) override {
    inner_->on_task_placed(job, task, rack);
  }
  void on_task_completed(Job& job, Task& task, RackId rack) override {
    inner_->on_task_completed(job, task, rack);
  }
  void on_task_requeued(Job& job, Task& task, RackId rack) override {
    inner_->on_task_requeued(job, task, rack);
  }
  void on_job_completed(Job& job) override { inner_->on_job_completed(job); }
  void on_reduce_plan_cleared(Job& job) override {
    inner_->on_reduce_plan_cleared(job);
  }
  [[nodiscard]] std::string audit_invariants(
      const std::vector<Job*>& active_jobs) const override {
    return inner_->audit_invariants(active_jobs);
  }

 private:
  std::unique_ptr<JobScheduler> inner_;
};

/// `inner`'s schedulers, each wrapped in ScanDispatchScheduler.
[[nodiscard]] inline SchedulerFactory scan_dispatch_factory(
    SchedulerFactory inner) {
  return [inner = std::move(inner)] {
    return std::make_unique<ScanDispatchScheduler>(inner());
  };
}

}  // namespace cosched
