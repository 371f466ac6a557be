// Microbenchmarks for the coflow algorithms: CCT lower bound, PSRT's
// enumeration of reduce-rack counts, maximum bipartite matching, and the
// Birkhoff–von-Neumann clearance decomposition.
#include <benchmark/benchmark.h>

#include <vector>

#include "coflow/bvn_clearance.h"
#include "coflow/cct_bound.h"
#include "coflow/matching.h"
#include "common/rng.h"
#include "sched/coscheduler.h"

namespace cosched {
namespace {

TrafficMatrix random_matrix(std::int64_t racks, double density,
                            std::uint64_t seed) {
  Rng rng(seed);
  TrafficMatrix m;
  for (std::int64_t i = 0; i < racks; ++i) {
    for (std::int64_t j = 0; j < racks; ++j) {
      if (i != j && rng.bernoulli(density)) {
        m.add(RackId{i}, RackId{j},
              DataSize::megabytes(
                  static_cast<double>(rng.uniform_int(100, 5000))));
      }
    }
  }
  return m;
}

void BM_CctLowerBound(benchmark::State& state) {
  const TrafficMatrix m = random_matrix(state.range(0), 0.3, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cct_lower_bound(m, Bandwidth::gbps(100),
                                             Duration::milliseconds(10)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CctLowerBound)->Range(4, 64)->Complexity();

// One PSRT call (the scheduler's psrt.enumerate phase without SBS): m map
// racks of 6-30 GB each, num_reduces reduce tasks, T_e = 100 MB, scored
// with the legacy bound over 60 racks — every R_red in 1..60 is feasible.
void BM_PsrtEnumerate(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto num_reduces = static_cast<std::int32_t>(state.range(1));
  Rng rng(31);
  std::vector<DataSize> sm(m);
  for (DataSize& s : sm) {
    s = DataSize::megabytes(static_cast<double>(rng.uniform_int(6000, 30000)));
  }
  const CctBoundFn bound =
      legacy_cct_bound(Bandwidth::gbps(100), Duration::milliseconds(10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(possible_reduce_schedules_incremental(
        sm, num_reduces, DataSize::megabytes(100), bound, 60));
  }
}
BENCHMARK(BM_PsrtEnumerate)->ArgsProduct({{4, 16}, {60, 240}});

void BM_HopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  BipartiteGraph g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) g.add_edge(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(maximum_bipartite_matching(g).size);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HopcroftKarp)->Range(8, 256)->Complexity();

void BM_BvnClearance(benchmark::State& state) {
  const TrafficMatrix m = random_matrix(state.range(0), 0.4, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bvn_clearance(m, Bandwidth::gbps(100)).slots.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BvnClearance)->Range(4, 48)->Complexity();

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
