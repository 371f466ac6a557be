// A rack-to-rack flow in the fluid (flow-level) network model.
//
// Flows are aggregated per (job, source rack, destination rack): all shuffle
// bytes a job moves between one rack pair form one Flow. The elephant rule
// is applied at this granularity, exactly as in the paper.
//
// A Flow's `remaining_bits` is settled lazily: whenever the set of active
// flows (and hence rates) changes, the owner advances every active flow by
// rate * elapsed and re-plans completion events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "simcore/simulator.h"

namespace cosched {

enum class FlowPath {
  kPending,  // not yet routed
  kEps,      // shares the oversubscribed packet network
  kOcs,      // waits for / uses an optical circuit
  kLocal     // src == dst; served at NIC speed without fabric contention
};

[[nodiscard]] constexpr const char* to_string(FlowPath p) {
  switch (p) {
    case FlowPath::kPending:
      return "pending";
    case FlowPath::kEps:
      return "eps";
    case FlowPath::kOcs:
      return "ocs";
    case FlowPath::kLocal:
      return "local";
  }
  return "?";
}

/// Incomplete flows of one coflow, in total and per destination rack. Its
/// flows keep it current as they complete and reopen, so "has every flow
/// into rack r drained?" is a lookup instead of a scan over the coflow.
struct OpenFlowTally {
  std::int64_t total = 0;
  std::vector<std::int32_t> by_dst;

  void add(RackId dst, std::int32_t delta) {
    const auto d = static_cast<std::size_t>(dst.value());
    if (by_dst.size() <= d) by_dst.resize(d + 1, 0);
    by_dst[d] += delta;
    total += delta;
  }
  [[nodiscard]] std::int32_t to(RackId dst) const {
    const auto d = static_cast<std::size_t>(dst.value());
    return d < by_dst.size() ? by_dst[d] : 0;
  }
};

class Flow {
 public:
  Flow(FlowId id, CoflowId coflow, JobId job, RackId src, RackId dst,
       DataSize size)
      : id_(id),
        coflow_(coflow),
        job_(job),
        src_(src),
        dst_(dst),
        size_(size),
        remaining_bits_(static_cast<double>(size.in_bytes()) * 8.0) {}

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  [[nodiscard]] FlowId id() const { return id_; }
  [[nodiscard]] CoflowId coflow() const { return coflow_; }
  [[nodiscard]] JobId job() const { return job_; }
  [[nodiscard]] RackId src() const { return src_; }
  [[nodiscard]] RackId dst() const { return dst_; }
  [[nodiscard]] DataSize size() const { return size_; }
  [[nodiscard]] FlowPath path() const { return path_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] SimTime start_time() const { return start_time_; }
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }
  [[nodiscard]] double remaining_bits() const { return remaining_bits_; }
  [[nodiscard]] DataSize remaining() const {
    return DataSize::bytes(static_cast<std::int64_t>(remaining_bits_ / 8.0));
  }
  [[nodiscard]] Bandwidth rate() const { return rate_; }

  void set_path(FlowPath p) { path_ = p; }

  /// Additional demand discovered after creation (a reduce task placed on
  /// the destination rack after the flow already existed).
  void add_demand(DataSize extra) {
    size_ += extra;
    remaining_bits_ += static_cast<double>(extra.in_bytes()) * 8.0;
    if (completed_ && remaining_bits_ > 0.0) {
      completed_ = false;
      if (tally_ != nullptr) tally_->add(dst_, 1);
    }
  }

  void mark_started(SimTime now) {
    if (!started_) {
      started_ = true;
      start_time_ = now;
    }
  }

  void mark_completed(SimTime now) {
    if (!completed_ && tally_ != nullptr) tally_->add(dst_, -1);
    completed_ = true;
    remaining_bits_ = 0.0;
    completion_time_ = now;
  }

  /// Advance the fluid transfer by `elapsed` at the current rate.
  /// Returns the number of bits moved.
  double settle(Duration elapsed) {
    const double moved =
        std::min(remaining_bits_, rate_.in_bits_per_sec() * elapsed.sec());
    remaining_bits_ -= moved;
    return moved;
  }

  void set_rate(Bandwidth r) { rate_ = r; }

  /// Completion event bookkeeping for whichever fabric is carrying the flow.
  EventHandle& completion_event() { return completion_event_; }

  /// Deadline the current completion event targets (fabric bookkeeping;
  /// used to skip rescheduling when a rate change barely moves the ETA).
  [[nodiscard]] SimTime planned_completion() const {
    return planned_completion_;
  }
  void set_planned_completion(SimTime t) { planned_completion_ = t; }
  /// Bytes a circuit fabric has already credited for this flow (fabric
  /// bookkeeping): a flow reopened by late demand after completing credits
  /// only the delta on its next completion.
  [[nodiscard]] DataSize circuit_credited() const { return circuit_credited_; }
  void set_circuit_credited(DataSize bytes) { circuit_credited_ = bytes; }

  /// Attach the owning coflow's tally at creation; the flow counts itself
  /// in while incomplete. A free-standing flow has none.
  void set_tally(OpenFlowTally* tally) {
    tally_ = tally;
    if (tally_ != nullptr && !completed_) tally_->add(dst_, 1);
  }

 private:
  FlowId id_;
  CoflowId coflow_;
  JobId job_;
  RackId src_;
  RackId dst_;
  DataSize size_;
  double remaining_bits_;
  FlowPath path_ = FlowPath::kPending;
  bool started_ = false;
  bool completed_ = false;
  SimTime start_time_ = SimTime::zero();
  SimTime completion_time_ = SimTime::zero();
  Bandwidth rate_ = Bandwidth::zero();
  EventHandle completion_event_;
  SimTime planned_completion_ = SimTime::infinity();
  DataSize circuit_credited_ = DataSize::zero();
  OpenFlowTally* tally_ = nullptr;
};

}  // namespace cosched
