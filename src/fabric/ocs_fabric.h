// OcsFabric: K independent optical circuit planes driven by Sunflow.
//
// K = 1 is the paper's fabric — a single R-port OCS with one circuit per
// port and not-all-stop reconfiguration — and runs the exact pre-seam code
// path bit for bit (DESIGN.md §12). K > 1 models the K-core OCS designs of
// the related work (Wang/Shen's hybrid-switched scheduling, the
// O(K)-approximation multi-core OCS papers): every rack's ToR has one
// transceiver per plane, so up to K circuits can terminate at a rack
// simultaneously, one per plane. Sunflow allocates across planes in plane
// order; the auditor sweeps port exclusivity per plane.
//
// Plane-targeted outages (ocs-outage:...:plane=N) fail one plane: its
// in-flight transfers are evicted, queued demand stays (other planes can
// serve it), and allocation skips the plane until the window closes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "coflow/sunflow.h"
#include "net/fabric.h"
#include "net/ocs_switch.h"

namespace cosched {

class OcsFabric final : public Fabric {
 public:
  OcsFabric(Simulator& sim, const HybridTopology& topo, std::int32_t planes);

  [[nodiscard]] FabricKind kind() const override { return FabricKind::kOcs; }
  [[nodiscard]] std::string name() const override {
    return "ocs:" + std::to_string(static_cast<int>(planes_.size()));
  }

  void submit(Coflow& coflow, Flow& flow) override {
    sunflow_.submit(coflow, flow);
  }
  void demand_added(Flow& flow) override { sunflow_.demand_added(flow); }
  void retire_coflow(const Coflow& coflow) override {
    sunflow_.retire_coflow(coflow.id());
  }
  [[nodiscard]] std::vector<Flow*> evict_all() override {
    return sunflow_.evict_all();
  }

  /// K = 1: exactly the paper's T(C) (the cct_bound.h free function, bit
  /// for bit). K > 1: the per-port bound for K parallel planes — each
  /// port's transfer + setup busy time averages over its K transceivers,
  /// some plane still hosts ceil(degree/K) setups, and a single flow can
  /// never split across planes (the Wang et al. K-core OCS port model;
  /// docs/FABRICS.md).
  [[nodiscard]] Duration cct_lower_bound(
      const TrafficMatrix& matrix) const override;

  [[nodiscard]] std::int32_t num_planes() const override {
    return static_cast<std::int32_t>(planes_.size());
  }
  [[nodiscard]] OcsSwitch* plane(std::int32_t i) override {
    return planes_[static_cast<std::size_t>(i)].get();
  }
  [[nodiscard]] const OcsSwitch* plane(std::int32_t i) const override {
    return planes_[static_cast<std::size_t>(i)].get();
  }
  [[nodiscard]] bool plane_available(std::int32_t i) const override {
    return down_[static_cast<std::size_t>(i)] == 0;
  }
  [[nodiscard]] std::vector<Flow*> begin_plane_outage(
      std::int32_t plane_index) override;
  void end_plane_outage(std::int32_t plane_index) override;

  [[nodiscard]] std::size_t pending_flows() const override {
    return sunflow_.pending_flows();
  }
  [[nodiscard]] std::size_t active_transfers() const override {
    return sunflow_.active_transfers();
  }
  [[nodiscard]] std::size_t active_coflows() const override {
    return sunflow_.active_coflows();
  }
  [[nodiscard]] std::int64_t active_circuits() const override;
  [[nodiscard]] DataSize bytes_in_flight() const override {
    return sunflow_.bytes_in_flight();
  }
  [[nodiscard]] double uncredited_settled_bits() const override {
    return sunflow_.uncredited_settled_bits();
  }
  [[nodiscard]] std::string self_check() const override {
    return sunflow_.self_check();
  }
  void set_self_audit(bool on) override { sunflow_.set_self_audit(on); }

  void set_observability(Observability* obs) override {
    sunflow_.set_observability(obs);
  }
  void set_trace(TraceRecorder* trace) override;
  void set_reconfig_delay_provider(std::function<Duration()> provider) override;

  /// The Sunflow instance driving the planes (tests).
  [[nodiscard]] SunflowScheduler& sunflow() { return sunflow_; }

 private:
  std::vector<std::unique_ptr<OcsSwitch>> planes_;
  /// Outage depth per plane (overlapping windows compose, same as the
  /// whole-fabric depth counter in Network).
  std::vector<std::int32_t> down_;
  SunflowScheduler sunflow_;
};

}  // namespace cosched
