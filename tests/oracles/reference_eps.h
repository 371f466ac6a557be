// The reference EPS rate engine: per-flow progressive filling with a full
// link scan per round, the algorithm the product's grouped water-filling
// (src/net/eps_fabric.*) must reproduce bit for bit.
//
// Test-only: test_rate_equivalence compares it against
// EpsFabric::current_rates() after every replan, and the fuzzer checks
// every replan of its audited runs (check_every_replan).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/eps_fabric.h"
#include "net/flow.h"
#include "net/topology.h"
#include "sim/driver.h"

namespace cosched {

/// Max-min fair rates of `flows` (EPS and local) over the two-level EPS of
/// `topo`, sorted by flow id. Local flows run at NIC speed; EPS flows get
/// their share by repeatedly freezing every flow whose uplink or downlink
/// is the most constrained at the current fill level.
[[nodiscard]] std::vector<std::pair<FlowId, Bandwidth>> reference_eps_rates(
    const HybridTopology& topo, const std::vector<const Flow*>& flows);

/// "" when `eps`'s current rates equal reference_eps_rates over its active
/// flows bit for bit, else a description of the first divergence.
[[nodiscard]] std::string eps_rate_mismatch(const EpsFabric& eps,
                                            const HybridTopology& topo);

/// Per-replan rate check results for one or more runs.
struct RateOracleLog {
  std::int64_t replans_checked = 0;
  std::int64_t mismatches = 0;
  /// The first divergence seen, empty when none.
  std::string first_mismatch;
};

/// Check every EPS replan of `driver`'s run against reference_eps_rates,
/// recording into `log` (which must outlive the run).
void check_every_replan(SimulationDriver& driver, const HybridTopology& topo,
                        RateOracleLog* log);

}  // namespace cosched
