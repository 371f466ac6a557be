// The circuit-fabric seam: everything beside the EPS is a Fabric.
//
// The paper evaluates exactly one fabric shape — a single OCS with one
// circuit per rack port — but the related work (K-core OCS, rotor/TDMA
// designs like Mordia/RotorNet) varies exactly this layer. Fabric is the
// interface Network, the driver, and the auditor program against;
// implementations live in src/fabric/ (OcsFabric{K}, RotorFabric,
// MeshFabric, RingFabric). docs/FABRICS.md states the full contract.
//
// Obligations every implementation must uphold (see docs/FABRICS.md):
//   * Determinism — no wall clock, no RNG; identical inputs produce
//     identical event sequences bit for bit.
//   * Byte conservation — every bit a submitted flow drains is credited
//     through credit_bytes / credit_drained_bits (or still counted by
//     uncredited_settled_bits()), so the auditor's conservation identity
//     closes at every sync point.
//   * Eviction totality — evict_all() returns every incomplete flow the
//     fabric holds (queued or in flight) with its rate zeroed and its
//     completion event cancelled, leaving the fabric empty.
//   * Quiet outages — after evict_all() the fabric schedules nothing until
//     new demand is submitted (the auditor's outage quiet-window check).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "net/flow.h"
#include "net/topology.h"

namespace cosched {

class Coflow;
class OcsSwitch;
class TraceRecorder;
class TrafficMatrix;
struct Observability;

enum class FabricKind : std::uint8_t { kOcs, kRotor, kMesh, kRing };

[[nodiscard]] constexpr const char* to_string(FabricKind k) {
  switch (k) {
    case FabricKind::kOcs:
      return "ocs";
    case FabricKind::kRotor:
      return "rotor";
    case FabricKind::kMesh:
      return "mesh";
    case FabricKind::kRing:
      return "ring";
  }
  return "?";
}

/// Parsed `--fabric=` value. Grammar (strict: anything else is an error,
/// never a silent default — same spirit as the numeric bench parsers):
///
///   spec   := "ocs" [":" K]        K in [1, 64]; planes per rack pair
///           | "rotor" [":" PERIOD] PERIOD := positive number with an
///                                  optional "ms" or "s" suffix (bare
///                                  numbers are seconds; default 100ms)
///           | "mesh"
///           | "ring"
///
/// The default-constructed spec is "ocs:1" — the paper's fabric, and the
/// configuration every pre-fabric-seam result was produced under.
struct FabricSpec {
  FabricKind kind = FabricKind::kOcs;
  /// Independent circuit planes (OCS only).
  std::int32_t planes = 1;
  /// Rotor slot length (rotor only).
  Duration rotor_period = Duration::milliseconds(100);

  [[nodiscard]] static std::optional<FabricSpec> parse(const std::string& spec,
                                                       std::string* error);

  /// Canonical round-trippable spelling: "ocs:K", "rotor:Ts", "mesh",
  /// "ring". parse(to_spec()) reproduces the spec exactly.
  [[nodiscard]] std::string to_spec() const;

  friend bool operator==(const FabricSpec& a, const FabricSpec& b) {
    return a.kind == b.kind && a.planes == b.planes &&
           a.rotor_period == b.rotor_period;
  }
};

/// Abstract circuit fabric. Network owns one and routes elephants into it;
/// the EPS (in Network) carries everything else. The byte accounting lives
/// here concretely so every implementation reports drained traffic through
/// one arithmetic — the exact arithmetic Network used before the seam, so
/// runs without evictions report bit-identical byte counts.
class Fabric {
 public:
  using FlowCallback = std::function<void(Flow&)>;

  explicit Fabric(const HybridTopology& topo) : topo_(topo) {
    topo_.validate();
  }
  virtual ~Fabric() = default;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] virtual FabricKind kind() const = 0;
  /// Canonical spec name ("ocs:4", "rotor:0.1s", ...) for messages.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Would this fabric carry `flow`? Only cross-rack flows reach this
  /// (Network handles local traffic and outage fallback). The default is
  /// the c-Through elephant rule every current fabric shares.
  [[nodiscard]] virtual bool admits(const Flow& flow) const {
    return flow.size() >= topo_.elephant_threshold;
  }

  /// Hand one admitted flow of `coflow` to the fabric. May be called
  /// repeatedly for the same coflow as more of its flows materialize.
  virtual void submit(Coflow& coflow, Flow& flow) = 0;
  /// The demand of an already-submitted flow grew.
  virtual void demand_added(Flow& flow) = 0;
  /// `coflow`'s job finished and is about to be freed, together with its
  /// flows (all completed): drop every pointer to them. The default has
  /// nothing to drop — a fabric that holds only incomplete flows (rotor,
  /// mesh, ring) already let go of each flow when it drained.
  virtual void retire_coflow(const Coflow& coflow) { (void)coflow; }
  /// Whole-fabric outage: abort every queued and in-flight transfer,
  /// crediting partially-drained bits. Returned flows are incomplete and
  /// unrouted as far as the fabric is concerned; the caller re-routes them
  /// (onto the EPS). Deterministic order.
  [[nodiscard]] virtual std::vector<Flow*> evict_all() = 0;

  /// A hard lower bound on the time this fabric needs to drain `matrix` as
  /// one coflow, measured from the coflow's release: no schedule the fabric
  /// can produce completes sooner. Each implementation documents the model
  /// its bound encodes (docs/FABRICS.md section "The bound contract");
  /// ocs:1 reproduces the paper's T(C) (src/coflow/cct_bound.h) bit for
  /// bit. Consumers: Sunflow and BVN coflow priorities,
  /// RunMetrics::cct_lower_bound, the auditor's cct-lower-bound check, and
  /// (through the default placement_cost) PSRT/SBS planning.
  /// Pure virtual (not defaulted) because cosched_net cannot link against
  /// TrafficMatrix's accessors — implementations live in src/fabric/.
  [[nodiscard]] virtual Duration cct_lower_bound(
      const TrafficMatrix& matrix) const = 0;

  /// The T(C) the planner (PSRT/SBS) minimizes when it places a job's
  /// reduces. A placement objective, not a guarantee: it only has to rank
  /// candidate placements well. Defaults to the sound cct_lower_bound; a
  /// fabric whose sound bound ranks placements badly overrides it
  /// (docs/FABRICS.md, "Bound and placement cost").
  [[nodiscard]] virtual Duration placement_cost(
      const TrafficMatrix& matrix) const {
    return cct_lower_bound(matrix);
  }

  // ----- plane access (OCS-family fabrics) ---------------------------------
  /// Independent circuit planes. Non-plane fabrics report 0; plane(i) is
  /// then never called. The auditor sweeps port exclusivity per plane.
  [[nodiscard]] virtual std::int32_t num_planes() const { return 0; }
  [[nodiscard]] virtual OcsSwitch* plane(std::int32_t) { return nullptr; }
  [[nodiscard]] virtual const OcsSwitch* plane(std::int32_t) const {
    return nullptr;
  }
  [[nodiscard]] virtual bool plane_available(std::int32_t) const {
    return true;
  }
  /// Plane-targeted outage (ocs-outage:plane=N): evict that plane's
  /// in-flight transfers (queued flows stay queued — other planes can still
  /// serve them) and stop allocating on it until end_plane_outage. Fabrics
  /// without planes reject the call.
  [[nodiscard]] virtual std::vector<Flow*> begin_plane_outage(
      std::int32_t plane_index) {
    COSCHED_CHECK_MSG(false, name() << " has no plane " << plane_index
                                    << " to fail (plane-targeted outages "
                                       "need an ocs:K fabric)");
    return {};
  }
  virtual void end_plane_outage(std::int32_t plane_index) {
    COSCHED_CHECK_MSG(false,
                      name() << " has no plane " << plane_index << " to heal");
  }

  // ----- diagnostics -------------------------------------------------------
  [[nodiscard]] virtual std::size_t pending_flows() const = 0;
  [[nodiscard]] virtual std::size_t active_transfers() const = 0;
  [[nodiscard]] virtual std::size_t active_coflows() const { return 0; }
  [[nodiscard]] virtual std::int64_t active_circuits() const = 0;
  [[nodiscard]] virtual DataSize bytes_in_flight() const = 0;
  /// Bits settled out of in-flight transfers but not yet credited through
  /// credit_bytes/credit_drained_bits (see SunflowScheduler). The auditor
  /// adds this term to its conservation identity.
  [[nodiscard]] virtual double uncredited_settled_bits() const { return 0.0; }
  /// Fabric-specific internal invariants, re-derived from first principles
  /// ("every transfer's circuit exists", "every active pair matches the
  /// current rotor matching"). Empty string = coherent; the auditor aborts
  /// on anything else. Called at dispatch boundaries and outage edges.
  [[nodiscard]] virtual std::string self_check() const { return {}; }
  /// Audited runs: let the fabric re-derive its incremental state as it
  /// goes and report faults through self_check(). Read-only; a no-op for
  /// fabrics without such state.
  virtual void set_self_audit(bool on) { (void)on; }

  // ----- hooks -------------------------------------------------------------
  /// Invoked exactly once per flow when it finishes draining on the fabric.
  void set_on_flow_complete(FlowCallback cb) {
    on_flow_complete_ = std::move(cb);
  }
  virtual void set_observability(Observability*) {}
  virtual void set_trace(TraceRecorder*) {}
  /// Override the per-setup reconfiguration delay (fault injection:
  /// reconfig-jitter). No-op for fabrics without demand-driven setups.
  virtual void set_reconfig_delay_provider(std::function<Duration()>) {}

  // ----- shared link parameters and byte accounting ------------------------
  [[nodiscard]] const HybridTopology& topology() const { return topo_; }
  [[nodiscard]] Bandwidth link_rate() const { return topo_.ocs_link; }
  [[nodiscard]] Duration reconfig_delay() const {
    return topo_.ocs_reconfig_delay;
  }

  /// Whole-flow credit, reported by the fabric's scheduler as transfers
  /// drain (fabrics are rate-constant, so their schedulers own timing).
  void credit_bytes(DataSize bytes) { bytes_ += bytes; }
  /// Partial-drain credit for transfers torn down mid-flight (eviction) or
  /// settled incrementally (rotor slot ends). Kept in a separate double
  /// accumulator so runs that never touch it report byte counts
  /// bit-identical to integer-only accounting.
  void credit_drained_bits(double bits) { drained_bits_ += bits; }

  [[nodiscard]] DataSize bytes_transferred() const {
    if (drained_bits_ == 0.0) return bytes_;
    return bytes_ +
           DataSize::bytes(static_cast<std::int64_t>(drained_bits_ / 8.0));
  }
  /// Exact drained bits (no byte truncation), for the auditor's
  /// conservation identity.
  [[nodiscard]] double bits_transferred() const {
    return static_cast<double>(bytes_.in_bytes()) * 8.0 + drained_bits_;
  }

 protected:
  void notify_flow_complete(Flow& flow) {
    if (on_flow_complete_) on_flow_complete_(flow);
  }

  HybridTopology topo_;

 private:
  FlowCallback on_flow_complete_;
  DataSize bytes_ = DataSize::zero();
  double drained_bits_ = 0.0;
};

}  // namespace cosched
