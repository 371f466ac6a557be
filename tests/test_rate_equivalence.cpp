// Rate-engine equivalence regression (part of `ctest -L determinism`).
//
// The grouped water-filling in EpsFabric must reproduce per-flow
// progressive filling (reference_eps_rates, tests/oracles/) *bit for bit*:
// after every replan, each flow's rate must equal the oracle's over the
// exact flow set that replan filled, across randomized topologies and flow
// sets — including many flows on one rack pair, zero-byte flows, local
// flows, and demand added mid-transfer. Since rates are all that drives
// the fluid model, equal rates at every replan mean equal completion times.
// Any divergence here means the fast path changed simulation results.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/eps_fabric.h"
#include "oracles/reference_eps.h"

namespace cosched {
namespace {

// One fabric + simulator pair running a scripted scenario, with every
// replan checked against the oracle.
struct CheckedRun {
  Simulator sim;
  HybridTopology topo;
  EpsFabric eps;
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Flow>> flows;
  std::int64_t replans_checked = 0;
  std::string first_mismatch;

  explicit CheckedRun(const HybridTopology& t) : topo(t), eps(sim, t) {
    eps.set_replan_observer([this](const EpsFabric& fabric) {
      ++replans_checked;
      if (first_mismatch.empty()) {
        first_mismatch = eps_rate_mismatch(fabric, topo);
      }
    });
  }

  void start(std::int64_t src, std::int64_t dst, DataSize size) {
    flows.push_back(std::make_unique<Flow>(ids.next(), CoflowId{0}, JobId{0},
                                           RackId{src}, RackId{dst}, size));
    Flow& f = *flows.back();
    f.set_path(src == dst ? FlowPath::kLocal : FlowPath::kEps);
    eps.start_flow(f, nullptr);
  }

  void grow(std::size_t idx, DataSize extra) {
    flows[idx]->add_demand(extra);
    eps.demand_added(*flows[idx]);
  }
};

// Drive one randomized scenario, checking the oracle at every replan (each
// mutation triggers one within the 100 ms coalescing window).
void run_scenario(std::uint64_t seed, std::int32_t racks,
                  std::int64_t num_starts, std::int64_t pair_limit,
                  bool zero_bytes, bool locals, bool demand_adds) {
  HybridTopology topo;
  topo.num_racks = racks;
  CheckedRun run(topo);

  Rng rng(seed);
  SimTime t = SimTime::zero();
  std::int64_t started = 0;
  while (started < num_starts) {
    t = t + Duration::milliseconds(rng.uniform_int(0, 250));
    run.sim.run_until(t);
    const bool add_demand = demand_adds && started > 0 &&
                            rng.uniform_int(0, 3) == 0;
    // Every mutation but a zero-byte start requests a replan.
    bool replans = true;
    const std::int64_t checked_before = run.replans_checked;
    if (add_demand) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(run.flows.size()) - 1));
      const DataSize extra = DataSize::megabytes(rng.uniform_int(0, 800));
      // Only grow in-flight flows so this scenario never re-opens a
      // drained flow (the driver restarts those through the fabric, which
      // is covered by the driver tests).
      if (run.flows[idx]->completed()) {
        replans = false;
      } else {
        run.grow(idx, extra);
      }
    } else {
      // Restricting the rack range squeezes many flows onto few pairs.
      const std::int64_t span = pair_limit > 0
                                    ? std::min<std::int64_t>(pair_limit, racks)
                                    : racks;
      const std::int64_t src = rng.uniform_int(0, span - 1);
      std::int64_t dst = rng.uniform_int(0, span - 1);
      if (locals ? false : dst == src) dst = (dst + 1) % span;
      if (dst == src && span == 1) dst = src;  // degenerate: local only
      DataSize size = DataSize::megabytes(rng.uniform_int(1, 4000));
      if (zero_bytes && rng.uniform_int(0, 4) == 0) size = DataSize::zero();
      run.start(src, dst, size);
      replans = !size.is_zero();
      ++started;
    }
    // Advance past the replan-coalescing window so the mutation's replan
    // (and its oracle check) has run.
    t = t + Duration::milliseconds(101);
    run.sim.run_until(t);
    ASSERT_EQ(run.first_mismatch, "");
    if (replans) {
      ASSERT_GT(run.replans_checked, checked_before);
    }
  }

  run.sim.run();
  ASSERT_EQ(run.first_mismatch, "");
  ASSERT_EQ(run.eps.active_flows(), 0U);
  ASSERT_EQ(run.eps.active_groups(), 0U);
  for (const auto& flow : run.flows) ASSERT_TRUE(flow->completed());
}

TEST(RateEquivalence, RandomizedSmallTopologies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::int32_t racks = static_cast<std::int32_t>(2 + seed % 7);
    SCOPED_TRACE("seed " + std::to_string(seed) + " racks " +
                 std::to_string(racks));
    run_scenario(seed, racks, /*num_starts=*/40, /*pair_limit=*/0,
                 /*zero_bytes=*/false, /*locals=*/false,
                 /*demand_adds=*/false);
  }
}

TEST(RateEquivalence, ManyFlowsPerPair) {
  // 80 flows over at most 2*1 cross-rack pairs: deep groups, few rounds.
  run_scenario(/*seed=*/11, /*racks=*/6, /*num_starts=*/80, /*pair_limit=*/2,
               /*zero_bytes=*/false, /*locals=*/false, /*demand_adds=*/false);
}

TEST(RateEquivalence, PaperScaleSixtyRacks) {
  run_scenario(/*seed=*/21, /*racks=*/60, /*num_starts=*/120,
               /*pair_limit=*/0, /*zero_bytes=*/false, /*locals=*/false,
               /*demand_adds=*/false);
}

TEST(RateEquivalence, ZeroByteAndLocalFlows) {
  run_scenario(/*seed=*/31, /*racks=*/5, /*num_starts=*/60, /*pair_limit=*/0,
               /*zero_bytes=*/true, /*locals=*/true, /*demand_adds=*/false);
}

TEST(RateEquivalence, DemandAddedMidTransfer) {
  run_scenario(/*seed=*/41, /*racks=*/8, /*num_starts=*/50, /*pair_limit=*/3,
               /*zero_bytes=*/true, /*locals=*/true, /*demand_adds=*/true);
}

}  // namespace
}  // namespace cosched
