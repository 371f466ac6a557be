// The Coflow abstraction: all shuffle flows of one job, with their traffic
// matrix and completion bookkeeping.
//
// A Coflow owns its Flow objects. Flows are aggregated per rack pair, so
// `demand(src, dst, size)` either creates a flow or grows an existing one.
// The *release* time — when the flows were handed to the network — anchors
// CCT measurement: CCT = (last flow completion) - (release of first flow).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coflow/cct_bound.h"
#include "coflow/traffic_matrix.h"
#include "common/ids.h"
#include "net/flow.h"

namespace cosched {

class Coflow {
 public:
  Coflow(CoflowId id, JobId job) : id_(id), job_(job) {}

  Coflow(const Coflow&) = delete;
  Coflow& operator=(const Coflow&) = delete;

  [[nodiscard]] CoflowId id() const { return id_; }
  [[nodiscard]] JobId job() const { return job_; }

  /// Add demand between a rack pair; creates or grows the flow. Returns the
  /// flow and whether it was newly created.
  std::pair<Flow*, bool> add_demand(IdAllocator<FlowId>& ids, RackId src,
                                    RackId dst, DataSize size);

  [[nodiscard]] Flow* find_flow(RackId src, RackId dst);
  [[nodiscard]] const std::vector<std::unique_ptr<Flow>>& flows() const {
    return flows_;
  }

  /// Cross-rack demand only (what the OCS lower bound is computed over).
  [[nodiscard]] TrafficMatrix cross_rack_matrix() const;

  /// Lower bound T(C) over the cross-rack matrix.
  [[nodiscard]] Duration lower_bound(Bandwidth bw, Duration delta) const {
    return cct_lower_bound(cross_rack_matrix(), bw, delta);
  }

  /// O(1): the open-flow tally is kept by the flows themselves.
  [[nodiscard]] bool all_flows_complete() const { return open_.total == 0; }
  /// Whether every flow into `dst` has drained (O(1)).
  [[nodiscard]] bool flows_into_done(RackId dst) const {
    return open_.to(dst) == 0;
  }
  /// The tally against a recount over the flows: empty when they agree,
  /// else the first divergence (the invariant auditor's check).
  [[nodiscard]] std::string audit_open_flows() const;

  /// Mark that the first flows were handed to the network at `now`.
  void mark_released(SimTime now) {
    if (!released_) {
      released_ = true;
      release_time_ = now;
    }
  }
  [[nodiscard]] bool released() const { return released_; }
  [[nodiscard]] SimTime release_time() const { return release_time_; }

  void mark_completed(SimTime now) {
    completed_ = true;
    completion_time_ = now;
  }
  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }

  /// Coflow completion time; valid once completed.
  [[nodiscard]] Duration cct() const { return completion_time_ - release_time_; }

  [[nodiscard]] DataSize total_demand() const;

 private:
  CoflowId id_;
  JobId job_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::map<std::pair<RackId, RackId>, Flow*> by_pair_;
  OpenFlowTally open_;
  bool released_ = false;
  bool completed_ = false;
  SimTime release_time_ = SimTime::zero();
  SimTime completion_time_ = SimTime::zero();
};

}  // namespace cosched
