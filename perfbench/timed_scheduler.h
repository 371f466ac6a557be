// TimedScheduler: a JobScheduler that forwards every call to the scheduler
// it wraps and times the calls from outside.
//
// It is the benchmark's view of the `sched` layer. SimulationDriver only sees
// the JobScheduler interface, so wrapping the scheduler that
// make_scheduler_factory returns times exactly the calls SimulationDriver
// makes:
//
//   submit — on_job_submitted (input placement, MTS guideline)
//   plan   — on_maps_completed (PSRT + SBS reduce planning)
//   pick   — pick_task (OCAS container grants; Fair's fair-share pick)
//   hook   — on_task_placed / on_task_completed / on_task_requeued /
//            on_job_completed / on_reduce_plan_cleared
//
// Engine selection, the decline-stability queries and the audit hook are
// forwarded untimed. The wrapper changes no decision: a wrapped run is bit
// for bit the plain run (harness.cpp --mode selftest checks it).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

/// Call count, total time and (optionally) every call's latency in ns.
struct CallTimer {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  bool keep_samples = false;
  std::vector<std::uint32_t> samples_ns;

  void add(std::int64_t ns) {
    ++calls;
    total_ns += ns;
    if (keep_samples) {
      samples_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, UINT32_MAX)));
    }
  }

  [[nodiscard]] double total_s() const {
    return static_cast<double>(total_ns) * 1e-9;
  }

  /// Nearest-rank percentile of the recorded latencies, in microseconds
  /// (0 when nothing was recorded).
  [[nodiscard]] double percentile_us(double pct) {
    if (samples_ns.empty()) return 0.0;
    const auto n = samples_ns.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n) - 1;
    std::nth_element(samples_ns.begin(),
                     samples_ns.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples_ns.end());
    return static_cast<double>(samples_ns[rank]) * 1e-3;
  }
};

class TimedScheduler final : public cosched::JobScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TimedScheduler(std::unique_ptr<cosched::JobScheduler> inner)
      : inner_(std::move(inner)) {
    plan.keep_samples = true;
    pick.keep_samples = true;
  }

  CallTimer submit;
  CallTimer plan;
  CallTimer pick;
  CallTimer hook;
  std::uint64_t grants = 0;
  std::size_t active_jobs_max = 0;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool defers_reduces() const override {
    return inner_->defers_reduces();
  }

  void on_job_submitted(cosched::Job& job,
                        cosched::SchedContext& ctx) override {
    note_active(ctx);
    const auto t0 = Clock::now();
    inner_->on_job_submitted(job, ctx);
    submit.add(since(t0));
  }

  void on_maps_completed(cosched::Job& job,
                         cosched::SchedContext& ctx) override {
    note_active(ctx);
    const auto t0 = Clock::now();
    inner_->on_maps_completed(job, ctx);
    plan.add(since(t0));
  }

  std::optional<cosched::TaskChoice> pick_task(
      cosched::RackId rack, cosched::SchedContext& ctx) override {
    note_active(ctx);
    const auto t0 = Clock::now();
    auto choice = inner_->pick_task(rack, ctx);
    pick.add(since(t0));
    if (choice.has_value()) ++grants;
    return choice;
  }

  [[nodiscard]] bool declines_are_stable() const override {
    return inner_->declines_are_stable();
  }
  [[nodiscard]] bool last_decline_was_global() const override {
    return inner_->last_decline_was_global();
  }
  void set_sched_engine(cosched::SchedEngine engine) override {
    inner_->set_sched_engine(engine);
  }
  [[nodiscard]] cosched::SchedEngine sched_engine() const override {
    return inner_->sched_engine();
  }

  void on_task_placed(cosched::Job& job, cosched::Task& task,
                      cosched::RackId rack) override {
    const auto t0 = Clock::now();
    inner_->on_task_placed(job, task, rack);
    hook.add(since(t0));
  }
  void on_task_completed(cosched::Job& job, cosched::Task& task,
                         cosched::RackId rack) override {
    const auto t0 = Clock::now();
    inner_->on_task_completed(job, task, rack);
    hook.add(since(t0));
  }
  void on_task_requeued(cosched::Job& job, cosched::Task& task,
                        cosched::RackId rack) override {
    const auto t0 = Clock::now();
    inner_->on_task_requeued(job, task, rack);
    hook.add(since(t0));
  }
  void on_job_completed(cosched::Job& job) override {
    const auto t0 = Clock::now();
    inner_->on_job_completed(job);
    hook.add(since(t0));
  }
  void on_reduce_plan_cleared(cosched::Job& job) override {
    const auto t0 = Clock::now();
    inner_->on_reduce_plan_cleared(job);
    hook.add(since(t0));
  }

  [[nodiscard]] std::string audit_invariants(
      const std::vector<cosched::Job*>& active_jobs) const override {
    return inner_->audit_invariants(active_jobs);
  }

 private:
  static std::int64_t since(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
        .count();
  }
  void note_active(const cosched::SchedContext& ctx) {
    active_jobs_max = std::max(active_jobs_max, ctx.active_jobs.size());
  }

  std::unique_ptr<cosched::JobScheduler> inner_;
};

}  // namespace perfbench
