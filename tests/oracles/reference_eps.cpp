#include "oracles/reference_eps.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace cosched {

namespace {

// Must match the product's tolerance (src/net/eps_fabric.cpp) so both
// freeze identical sets.
constexpr double kTightTol = 1e-12;

}  // namespace

std::vector<std::pair<FlowId, Bandwidth>> reference_eps_rates(
    const HybridTopology& topo, const std::vector<const Flow*>& flows) {
  const double link_cap = topo.eps_rack_link().in_bits_per_sec();
  const auto racks = static_cast<std::size_t>(topo.num_racks);

  std::vector<double> up_cap(racks, link_cap);
  std::vector<double> down_cap(racks, link_cap);
  std::vector<int> up_load(racks, 0);
  std::vector<int> down_load(racks, 0);

  std::vector<std::pair<FlowId, Bandwidth>> rates;
  std::vector<const Flow*> eps_flows;
  for (const Flow* flow : flows) {
    if (flow->path() == FlowPath::kLocal) {
      // Local flows are not constrained by the fabric.
      rates.emplace_back(flow->id(), topo.server_nic);
      continue;
    }
    const auto s = static_cast<std::size_t>(flow->src().value());
    const auto d = static_cast<std::size_t>(flow->dst().value());
    COSCHED_CHECK(s < racks && d < racks);
    ++up_load[s];
    ++down_load[d];
    eps_flows.push_back(flow);
  }

  std::vector<bool> frozen(eps_flows.size(), false);
  std::size_t remaining = eps_flows.size();
  while (remaining > 0) {
    // Find the most constrained link: min residual_capacity / active_load.
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < racks; ++r) {
      if (up_load[r] > 0) {
        best_share = std::min(best_share, up_cap[r] / up_load[r]);
      }
      if (down_load[r] > 0) {
        best_share = std::min(best_share, down_cap[r] / down_load[r]);
      }
    }
    COSCHED_CHECK(best_share < std::numeric_limits<double>::infinity());

    // Freeze every flow whose uplink or downlink is saturated at this share.
    bool froze_any = false;
    for (std::size_t i = 0; i < eps_flows.size(); ++i) {
      if (frozen[i]) continue;
      const auto s = static_cast<std::size_t>(eps_flows[i]->src().value());
      const auto d = static_cast<std::size_t>(eps_flows[i]->dst().value());
      const bool up_tight =
          up_cap[s] / up_load[s] <= best_share * (1.0 + kTightTol);
      const bool down_tight =
          down_cap[d] / down_load[d] <= best_share * (1.0 + kTightTol);
      if (!up_tight && !down_tight) continue;
      rates.emplace_back(eps_flows[i]->id(),
                         Bandwidth::bits_per_sec(best_share));
      frozen[i] = true;
      froze_any = true;
      --remaining;
      up_cap[s] -= best_share;
      down_cap[d] -= best_share;
      --up_load[s];
      --down_load[d];
      up_cap[s] = std::max(up_cap[s], 0.0);
      down_cap[d] = std::max(down_cap[d], 0.0);
    }
    COSCHED_CHECK_MSG(froze_any, "progressive filling made no progress");
  }
  std::sort(rates.begin(), rates.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return rates;
}

std::string eps_rate_mismatch(const EpsFabric& eps,
                              const HybridTopology& topo) {
  const auto got = eps.current_rates();
  const auto want = reference_eps_rates(topo, eps.active_flow_list());
  std::ostringstream os;
  if (got.size() != want.size()) {
    os << "EPS rate oracle: " << got.size() << " rates for " << want.size()
       << " active flows";
    return os.str();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got[i].second.in_bits_per_sec();
    const double w = want[i].second.in_bits_per_sec();
    if (got[i].first != want[i].first ||
        std::bit_cast<std::uint64_t>(g) != std::bit_cast<std::uint64_t>(w)) {
      os.precision(17);
      os << "EPS rate oracle: flow " << got[i].first << " has rate " << g
         << " b/s, per-flow filling gives flow " << want[i].first << " "
         << w << " b/s (" << got.size() << " active flows)";
      return os.str();
    }
  }
  return {};
}

void check_every_replan(SimulationDriver& driver, const HybridTopology& topo,
                        RateOracleLog* log) {
  driver.network().eps().set_replan_observer(
      [topo, log](const EpsFabric& eps) {
        ++log->replans_checked;
        std::string mismatch = eps_rate_mismatch(eps, topo);
        if (mismatch.empty()) return;
        if (log->mismatches++ == 0) log->first_mismatch = std::move(mismatch);
      });
}

}  // namespace cosched
