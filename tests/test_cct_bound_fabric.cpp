// Fabric::cct_lower_bound (ctest -L fabric): hand-derived bound values per
// fabric — ocs:1 bit-identical to the paper's T(C) free function, ocs:K
// dividing port work across planes (with the single-flow and ceil(deg/K)
// setup terms), rotor slot quantization at the exactly-one-period edge,
// mesh's zero-delta max-entry bound, ring hop scaling with the abstract-id
// clamp — plus the PSRT reference/incremental surrogate equivalence under
// every fabric bound and placement cost, and which placement cost each
// fabric charges (docs/FABRICS.md, "The bound contract").
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "coflow/cct_bound.h"
#include "coflow/traffic_matrix.h"
#include "common/rng.h"
#include "fabric/baseline_fabrics.h"
#include "fabric/ocs_fabric.h"
#include "fabric/rotor_fabric.h"
#include "net/topology.h"
#include "oracles/reference_coscheduler.h"
#include "sched/coscheduler.h"
#include "simcore/simulator.h"

namespace cosched {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// 8 racks, 8 Gb/s OCS (= 1 GB/s, so a 1 GB transfer is exactly 1 s),
/// delta = 10 ms, T_e = 1 GB: every hand-derived value below is exact.
HybridTopology test_topo() {
  HybridTopology topo;
  topo.num_racks = 8;
  topo.ocs_link = Bandwidth::gbps(8);
  topo.ocs_reconfig_delay = Duration::milliseconds(10);
  topo.elephant_threshold = DataSize::gigabytes(1);
  return topo;
}

constexpr double kDelta = 0.01;

TrafficMatrix asymmetric_matrix() {
  // Row 0 is wide (two flows), column 1 is tall (4 GB single flow): the
  // binding line differs between the legacy bound (column 1: 6 s + 2
  // setups) and the per-entry term (the 4 GB flow).
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(2));
  m.add(RackId{0}, RackId{2}, DataSize::gigabytes(1));
  m.add(RackId{3}, RackId{1}, DataSize::gigabytes(4));
  return m;
}

TEST(CctBoundFabric, Ocs1IsBitIdenticalToTheLegacyFreeFunction) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const OcsFabric ocs1(sim, topo, 1);
  const TrafficMatrix m = asymmetric_matrix();
  const Duration legacy =
      cct_lower_bound(m, topo.ocs_link, topo.ocs_reconfig_delay);
  EXPECT_EQ(bits(ocs1.cct_lower_bound(m).sec()), bits(legacy.sec()));
  // Hand value: col 1 binds at t(6 GB) + 2 * delta.
  EXPECT_DOUBLE_EQ(legacy.sec(), 6.0 + 2.0 * kDelta);
  EXPECT_EQ(bits(ocs1.cct_lower_bound(TrafficMatrix{}).sec()), bits(0.0));
}

TEST(CctBoundFabric, Ocs4SingleFlowTermBindsOnTheAsymmetricMatrix) {
  Simulator sim;
  const OcsFabric ocs4(sim, test_topo(), 4);
  // Port terms shrink by 4: col 1 becomes (6 + 2 delta)/4 = 1.505 s. But
  // the 4 GB flow still rides one circuit on one plane: 4 s + delta binds.
  EXPECT_DOUBLE_EQ(ocs4.cct_lower_bound(asymmetric_matrix()).sec(),
                   4.0 + kDelta);
}

TEST(CctBoundFabric, Ocs4DividesPortWorkAcrossPlanes) {
  Simulator sim;
  const OcsFabric ocs1(sim, test_topo(), 1);
  const OcsFabric ocs4(sim, test_topo(), 4);
  // One source fanning 1 GB to all 8 destinations: pure port-bound shape.
  TrafficMatrix m;
  for (int j = 1; j < 8; ++j) {
    m.add(RackId{0}, RackId{j}, DataSize::gigabytes(1));
  }
  m.add(RackId{0}, RackId{100}, DataSize::gigabytes(1));
  // ocs:1 charges the full serialized row: 8 s + 8 setups.
  EXPECT_DOUBLE_EQ(ocs1.cct_lower_bound(m).sec(), 8.0 + kDelta * 8.0);
  // ocs:4 spreads it over 4 transceivers; the single-flow term (1 s +
  // delta) and ceil(8/4) setups are both smaller.
  EXPECT_DOUBLE_EQ(ocs4.cct_lower_bound(m).sec(), (8.0 + kDelta * 8.0) / 4.0);
}

TEST(CctBoundFabric, OcsKCeilSetupTermBindsForTinyFlows) {
  Simulator sim;
  const OcsFabric ocs4(sim, test_topo(), 4);
  // 5 flows of 4 MB from one source: transfer is 0.02 s total, so the
  // averaged busy term is (0.02 + 5 delta)/4 = 0.0175 s — but 5 setups
  // cannot pack onto 4 planes without some plane doing 2 in sequence.
  TrafficMatrix m;
  for (int j = 1; j <= 5; ++j) {
    m.add(RackId{0}, RackId{j}, DataSize::megabytes(4));
  }
  EXPECT_DOUBLE_EQ(ocs4.cct_lower_bound(m).sec(),
                   kDelta * std::ceil(5.0 / 4.0));
}

TEST(CctBoundFabric, RotorSlotEdgeAtExactlyOnePeriodOfCapacity) {
  Simulator sim;
  const RotorFabric rotor(sim, test_topo(), Duration::milliseconds(100));
  // One slot's usable capacity is (P - delta) * bw = 90 ms at 1 GB/s =
  // 90 MB. A flow of exactly that size fits one slot: the bound is its
  // pure transfer time, not a period.
  TrafficMatrix exact;
  exact.add(RackId{0}, RackId{1}, DataSize::bytes(90'000'000));
  EXPECT_DOUBLE_EQ(rotor.cct_lower_bound(exact).sec(), 0.09);
  // One byte more needs a second slot; the straddle-aware tail
  // ((n-2) P + delta + residual) stays below the drain term, which still
  // binds — the bound grows continuously across the slot edge.
  TrafficMatrix over;
  over.add(RackId{0}, RackId{1}, DataSize::bytes(90'000'001));
  EXPECT_DOUBLE_EQ(rotor.cct_lower_bound(over).sec(),
                   transfer_time(DataSize::bytes(90'000'001),
                                 Bandwidth::gbps(8))
                       .sec());
}

TEST(CctBoundFabric, RotorDegreeForcesDistinctSlots) {
  Simulator sim;
  const RotorFabric rotor(sim, test_topo(), Duration::milliseconds(100));
  // Three tiny flows to three destinations: the bits fit one slot, but
  // each slot wires the source to exactly one peer, so three distinct
  // slots are needed — the third's boundary lies > release + P, plus its
  // delta. Slot quantization dominates the 12 ms of transfer.
  TrafficMatrix m;
  for (int j = 1; j <= 3; ++j) {
    m.add(RackId{0}, RackId{j}, DataSize::megabytes(4));
  }
  EXPECT_DOUBLE_EQ(rotor.cct_lower_bound(m).sec(), 0.1 + kDelta);
}

TEST(CctBoundFabric, MeshChargesOnlyTheLargestEntryAndZeroDelta) {
  Simulator sim;
  const MeshFabric mesh(sim, test_topo());
  const TrafficMatrix m = asymmetric_matrix();
  // Every pair drains concurrently: 4 s for the largest flow, no delta —
  // strictly below the legacy bound's 6.02 s column serialization.
  EXPECT_DOUBLE_EQ(mesh.cct_lower_bound(m).sec(), 4.0);
  EXPECT_LT(mesh.cct_lower_bound(m).sec(),
            cct_lower_bound(m, test_topo().ocs_link,
                            test_topo().ocs_reconfig_delay)
                .sec());
}

TEST(CctBoundFabric, RingScalesByHopCountPerSource) {
  Simulator sim;
  const RingFabric ring(sim, test_topo());
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(1));  // 1 hop
  m.add(RackId{0}, RackId{3}, DataSize::gigabytes(1));  // 3 hops
  m.add(RackId{7}, RackId{1}, DataSize::gigabytes(1));  // wraps: 2 hops
  // Source 0's egress is busy 1*1 + 1*3 = 4 s; source 7's only 2 s.
  EXPECT_DOUBLE_EQ(ring.cct_lower_bound(m).sec(), 4.0);
}

TEST(CctBoundFabric, RingClampsAbstractRackIdsToOneHop) {
  Simulator sim;
  const RingFabric ring(sim, test_topo());
  // PSRT plans against placeholder destination ids (1000000 + j) before
  // SBS picks real racks; the bound must stay a true lower bound for any
  // later identity assignment, i.e. count the 1-hop minimum.
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1000000}, DataSize::gigabytes(1));
  m.add(RackId{0}, RackId{1000001}, DataSize::gigabytes(1));
  EXPECT_DOUBLE_EQ(ring.cct_lower_bound(m).sec(), 2.0);
}

// The flat matrix keeps its entries sorted whatever order they arrive in,
// so every bound — built from one-pass line sums, per-entry terms or the
// ring's per-row running sums — is bit-identical over a shuffled and a
// sorted build of the same demand, repeated pairs included.
TEST(CctBoundFabric, BoundsAreBitIdenticalOverShuffledAndSortedBuilds) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const OcsFabric ocs3(sim, topo, 3);
  const RotorFabric rotor(sim, topo, Duration::milliseconds(100));
  const MeshFabric mesh(sim, topo);
  const RingFabric ring(sim, topo);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<TrafficMatrix::Key, DataSize>> adds;
    const std::int64_t n = rng.uniform_int(1, 40);
    for (std::int64_t k = 0; k < n; ++k) {
      // Mostly in-topology racks, some PSRT-style abstract destinations.
      const RackId src{rng.uniform_int(0, 7)};
      const RackId dst{rng.bernoulli(0.2) ? 1000000 + rng.uniform_int(0, 3)
                                          : rng.uniform_int(0, 7)};
      adds.push_back(
          {{src, dst}, DataSize::bytes(rng.uniform_int(1, 3'000'000'000))});
    }
    std::vector<std::pair<TrafficMatrix::Key, DataSize>> in_order = adds;
    std::stable_sort(in_order.begin(), in_order.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    rng.shuffle(adds);
    TrafficMatrix shuffled, sorted;
    for (const auto& [key, size] : adds) {
      shuffled.add(key.first, key.second, size);
    }
    for (const auto& [key, size] : in_order) {
      sorted.add(key.first, key.second, size);
    }
    ASSERT_EQ(shuffled.entries(), sorted.entries()) << "seed " << seed;
    EXPECT_EQ(bits(cct_lower_bound(shuffled, topo.ocs_link,
                                   topo.ocs_reconfig_delay)
                       .sec()),
              bits(cct_lower_bound(sorted, topo.ocs_link,
                                   topo.ocs_reconfig_delay)
                       .sec()))
        << "seed " << seed;
    for (const Fabric* fabric :
         std::vector<const Fabric*>{&ocs3, &rotor, &mesh, &ring}) {
      EXPECT_EQ(bits(fabric->cct_lower_bound(shuffled).sec()),
                bits(fabric->cct_lower_bound(sorted).sec()))
          << fabric->name() << " seed " << seed;
    }
  }
}

// The incremental PSRT evaluates the fabric bound on a surrogate matrix of
// just the binding row and column (coscheduler.h); that collapse must be
// bit-exact under every fabric's formula, not only the legacy one. The grid
// covers a closed-form fill with rem >= R_red (several tasks past the floor
// per rack) and the R_red past which d_min * R_red > num_reduces, where
// the incremental loop stops and the reference skips every larger R_red.
TEST(CctBoundFabric, PsrtIncrementalSurrogateMatchesReferencePerFabric) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const OcsFabric ocs1(sim, topo, 1);
  const OcsFabric ocs4(sim, topo, 4);
  const RotorFabric rotor(sim, topo, Duration::milliseconds(100));
  const MeshFabric mesh(sim, topo);
  const RingFabric ring(sim, topo);
  const std::vector<const Fabric*> fabrics = {&ocs1, &ocs4, &rotor, &mesh,
                                              &ring};
  struct Case {
    std::vector<DataSize> sm;
    std::int32_t num_reduces;
  };
  const std::vector<Case> grid = {
      // d_min = 4: R_red = 1 leaves rem = 3, R_red = 2 needs 8 > 7.
      {{DataSize::gigabytes(3), DataSize::gigabytes(2),
        DataSize::gigabytes(5)},
       7},
      // d_min = 4, R_red up to 5 (rem = 15 at R_red = 2); 6 * 4 > 23.
      {{DataSize::gigabytes(6), DataSize::gigabytes(8), DataSize::gigabytes(7),
        DataSize::gigabytes(9)},
       23},
      // One map rack, d_min = 1: rem runs 2, 1, 0 with no cutoff.
      {{DataSize::gigabytes(4)}, 3},
  };
  bool saw_wide_fill = false;
  bool saw_cutoff = false;
  for (const Case& c : grid) {
    const DataSize sm_min = *std::min_element(c.sm.begin(), c.sm.end());
    const std::int64_t r_red_max = std::min<std::int64_t>(
        {sm_min.in_bytes() / topo.elephant_threshold.in_bytes(),
         c.num_reduces, topo.num_racks});
    // ceil(T_e * num_reduces / SM_1), exact for these whole-GB inputs.
    const std::int64_t d_min =
        (topo.elephant_threshold.in_bytes() * c.num_reduces +
         sm_min.in_bytes() - 1) /
        sm_min.in_bytes();
    for (const Fabric* fabric : fabrics) {
      const std::vector<CctBoundFn> bounds = {
          [fabric](const TrafficMatrix& matrix) {
            return fabric->cct_lower_bound(matrix);
          },
          [fabric](const TrafficMatrix& matrix) {
            return fabric->placement_cost(matrix);
          }};
      for (const CctBoundFn& bound : bounds) {
        const auto reference = possible_reduce_schedules(
            c.sm, c.num_reduces, topo.elephant_threshold, bound,
            topo.num_racks);
        const auto incremental = possible_reduce_schedules_incremental(
            c.sm, c.num_reduces, topo.elephant_threshold, bound,
            topo.num_racks);
        ASSERT_EQ(reference.size(), incremental.size()) << fabric->name();
        ASSERT_FALSE(reference.empty()) << fabric->name();
        saw_cutoff |= static_cast<std::int64_t>(reference.size()) < r_red_max;
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(reference[i].d, incremental[i].d) << fabric->name();
          EXPECT_EQ(bits(reference[i].cct.sec()),
                    bits(incremental[i].cct.sec()))
              << fabric->name() << " candidate " << i;
          const auto r_red =
              static_cast<std::int64_t>(reference[i].d.size());
          saw_wide_fill |= c.num_reduces - d_min * r_red >= r_red;
        }
      }
    }
  }
  EXPECT_TRUE(saw_wide_fill);
  EXPECT_TRUE(saw_cutoff);
}

// PSRT/SBS minimize Fabric::placement_cost. Every fabric but the rotor
// charges its sound cct_lower_bound; the rotor charges the legacy ocs:1
// formula over the topology's OCS link and delay (the old --bound=legacy
// planner), bit for bit.
TEST(CctBoundFabric, PlacementCostIsTheSoundBoundExceptOnRotor) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const OcsFabric ocs1(sim, topo, 1);
  const OcsFabric ocs4(sim, topo, 4);
  const RotorFabric rotor(sim, topo, Duration::milliseconds(100));
  const MeshFabric mesh(sim, topo);
  const RingFabric ring(sim, topo);
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1000000}, DataSize::gigabytes(3));
  m.add(RackId{0}, RackId{1000001}, DataSize::megabytes(700));
  m.add(RackId{1}, RackId{1000000}, DataSize::gigabytes(2));
  for (const Fabric* fabric :
       std::vector<const Fabric*>{&ocs1, &ocs4, &mesh, &ring}) {
    EXPECT_EQ(bits(fabric->placement_cost(m).sec()),
              bits(fabric->cct_lower_bound(m).sec()))
        << fabric->name();
  }
  const Duration legacy =
      cct_lower_bound(m, topo.ocs_link, topo.ocs_reconfig_delay);
  EXPECT_EQ(bits(rotor.placement_cost(m).sec()), bits(legacy.sec()));
  EXPECT_NE(bits(rotor.placement_cost(m).sec()),
            bits(rotor.cct_lower_bound(m).sec()));

  const std::vector<DataSize> sm = {DataSize::gigabytes(3),
                                    DataSize::gigabytes(2)};
  const auto via_rotor = possible_reduce_schedules_incremental(
      sm, 5, topo.elephant_threshold,
      [&rotor](const TrafficMatrix& matrix) {
        return rotor.placement_cost(matrix);
      },
      topo.num_racks);
  const auto via_legacy = possible_reduce_schedules_incremental(
      sm, 5, topo.elephant_threshold,
      legacy_cct_bound(topo.ocs_link, topo.ocs_reconfig_delay),
      topo.num_racks);
  ASSERT_EQ(via_rotor.size(), via_legacy.size());
  ASSERT_FALSE(via_rotor.empty());
  for (std::size_t i = 0; i < via_rotor.size(); ++i) {
    EXPECT_EQ(via_rotor[i].d, via_legacy[i].d);
    EXPECT_EQ(bits(via_rotor[i].cct.sec()), bits(via_legacy[i].cct.sec()));
  }
}

}  // namespace
}  // namespace cosched
