// Network replay: re-drive a traced run's flow stream through a fresh
// Simulator + Network(make_fabric(...)) to time the `net` (EPS rate engine)
// and `fabric` (circuit fabric, Sunflow planes) layers on their own.
//
// Both layers sit behind SimulationDriver, so the benchmark cannot time them
// around its calls. Instead it records the run with tracing on and then
// replays, at their recorded sim times and through public calls only:
//
//   kFlowRouted   — EPS and local flows go to EpsFabric::start_flow in the
//                   EPS replay; circuit flows go to Fabric::submit in the
//                   fabric replay;
//   kOcsOutage    — whole-fabric outages (Network::begin_ocs_outage +
//                   Fabric::evict_all) and plane outages
//                   (Fabric::begin_plane_outage) in the fabric replay;
//   kFlowEvicted  — the evicted remainder restarts on the EPS replay.
//
// The trace records a flow's size when the flow is created. Demand added
// later to a flow in flight, and drained flows reopened by a late reduce,
// are not in the trace, so a replay can carry fewer bytes than the run.
// bytes_coverage (replayed ÷ run bytes per path) makes that visible.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_spec.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "obs/trace_event.h"

namespace perfbench {

struct ReplayResult {
  /// Wall time of the replay: scheduling its inputs and draining the sim.
  double wall_s = 0.0;
  /// Flows the replay started (EPS replay: EPS-path flows only, not local
  /// or evicted remainders; fabric replay: circuit-path flows).
  std::int64_t flows = 0;
  /// EPS rate re-plans (EPS replay only).
  std::int64_t replans = 0;
  /// Bytes the replayed path carried (EPS bytes, or circuit bytes).
  double bytes = 0.0;
  /// Flows the replayed outages evicted (fabric replay only).
  std::int64_t evicted = 0;
  /// Every replayed flow drained.
  bool drained = true;
};

/// Replay the EPS side of `trace`: EPS and local flows, plus evicted
/// remainders, on a fresh EpsFabric.
[[nodiscard]] ReplayResult replay_eps(
    const std::vector<cosched::TraceEvent>& trace,
    const cosched::HybridTopology& topo, const cosched::FabricSpec& spec);

/// Replay the circuit side of `trace`: circuit flows and outages on a fresh
/// fabric built from `spec`. `plan` says which outage windows target a
/// single plane (the trace records only each window's start and length).
[[nodiscard]] ReplayResult replay_fabric(
    const std::vector<cosched::TraceEvent>& trace,
    const cosched::HybridTopology& topo, const cosched::FabricSpec& spec,
    const cosched::FaultPlan& plan);

}  // namespace perfbench
