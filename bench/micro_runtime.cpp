// Micro-benchmarks (google-benchmark) of the hpac-offload runtime
// primitives: TAF state machine operations, iACT table probes and
// inserts, warp ballots, block tallies, clause parsing, the coalescing
// model and end-to-end region-executor throughput. These are host-side
// costs of the simulator/runtime, useful for keeping the harness fast;
// the modeled GPU costs live in RuntimeCosts.

#include <benchmark/benchmark.h>

#include <vector>

#include "approx/hierarchy.hpp"
#include "approx/iact.hpp"
#include "approx/region.hpp"
#include "approx/taf.hpp"
#include "apps/support.hpp"
#include "pragma/parser.hpp"
#include "sim/memory_model.hpp"
#include "sim/warp.hpp"

using namespace hpac;

namespace {

void BM_TafRecord(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  pragma::TafParams params{h, 8, 0.5};
  std::vector<double> storage(approx::TafState::storage_doubles(h, 1));
  approx::TafState taf(params, 1, storage);
  double v[1] = {1.0};
  for (auto _ : state) {
    v[0] += 0.001;
    taf.record_accurate(v);
    benchmark::DoNotOptimize(taf.credits());
  }
}
BENCHMARK(BM_TafRecord)->Arg(1)->Arg(3)->Arg(5)->Arg(16);

void BM_TafPredict(benchmark::State& state) {
  pragma::TafParams params{3, 1 << 20, 100.0};
  std::vector<double> storage(approx::TafState::storage_doubles(3, 4));
  approx::TafState taf(params, 4, storage);
  double v[4] = {1, 2, 3, 4};
  taf.record_accurate(v);
  for (auto _ : state) {
    taf.predict(v);
    benchmark::DoNotOptimize(v[0]);
  }
}
BENCHMARK(BM_TafPredict);

void BM_IactFindNearest(benchmark::State& state) {
  const int tsize = static_cast<int>(state.range(0));
  const int dims = static_cast<int>(state.range(1));
  std::vector<double> storage(approx::IactTable::storage_doubles(tsize, dims, 1));
  approx::IactTable table(tsize, dims, 1, approx::Replacement::kRoundRobin, storage);
  std::vector<double> in(dims, 0.5), out(1, 1.0);
  for (int i = 0; i < tsize; ++i) {
    in[0] = i;
    table.insert(in, out);
  }
  for (auto _ : state) {
    auto match = table.find_nearest(in);
    benchmark::DoNotOptimize(match.distance);
  }
}
BENCHMARK(BM_IactFindNearest)->Args({1, 1})->Args({4, 4})->Args({8, 8})->Args({8, 16});

void BM_IactInsertRoundRobin(benchmark::State& state) {
  std::vector<double> storage(approx::IactTable::storage_doubles(8, 4, 2));
  approx::IactTable table(8, 4, 2, approx::Replacement::kRoundRobin, storage);
  std::vector<double> in(4, 0.5), out(2, 1.0);
  for (auto _ : state) {
    in[0] += 1.0;
    table.insert(in, out);
  }
}
BENCHMARK(BM_IactInsertRoundRobin);

void BM_IactInsertClock(benchmark::State& state) {
  std::vector<double> storage(approx::IactTable::storage_doubles(8, 4, 2));
  approx::IactTable table(8, 4, 2, approx::Replacement::kClock, storage);
  std::vector<double> in(4, 0.5), out(2, 1.0);
  for (auto _ : state) {
    in[0] += 1.0;
    table.insert(in, out);
  }
}
BENCHMARK(BM_IactInsertClock);

void BM_Ballot(benchmark::State& state) {
  std::array<bool, 64> wishes{};
  for (int i = 0; i < 64; i += 3) wishes[static_cast<std::size_t>(i)] = true;
  const sim::LaneMask active = sim::full_mask(64);
  for (auto _ : state) {
    auto mask = sim::ballot(wishes, active);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_Ballot);

void BM_BlockTally(benchmark::State& state) {
  for (auto _ : state) {
    approx::BlockTally tally;
    for (int w = 0; w < 8; ++w) tally.add(0x0F0F0F0Full, sim::full_mask(32));
    benchmark::DoNotOptimize(tally.majority());
  }
}
BENCHMARK(BM_BlockTally);

void BM_ParseApprox(benchmark::State& state) {
  for (auto _ : state) {
    auto spec =
        pragma::parse_approx("memo(in:2:0.5f:4) level(warp) in(input[i*5:5:N]) out(o[i])");
    benchmark::DoNotOptimize(spec.technique);
  }
}
BENCHMARK(BM_ParseApprox);

void BM_CoalesceUnitStride(benchmark::State& state) {
  sim::CoalescingModel model(sim::v100());
  const sim::LaneMask active = 0x5555555555555555ull;
  std::uint64_t first = 0;
  for (auto _ : state) {
    first += 32;
    auto tx = model.unit_stride_transactions(first, 8, active, 32);
    benchmark::DoNotOptimize(tx);
  }
}
BENCHMARK(BM_CoalesceUnitStride);

void BM_RegionExecutorThroughput(benchmark::State& state) {
  const std::uint64_t n = 1u << 14;
  std::vector<double> out(n);
  approx::RegionBinding binding;
  binding.out_dims = 1;
  apps::bind_accurate(binding,
                      [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i) * 1e-6; });
  apps::bind_constant_cost(binding, 100.0);
  apps::bind_commit(binding, [&out](std::uint64_t i, const double* o) { out[i] = o[0]; });
  approx::RegionExecutor executor(sim::v100());
  pragma::ApproxSpec spec;
  spec.technique = pragma::Technique::kTafMemo;
  spec.taf = pragma::TafParams{3, 16, 0.5};
  spec.out_sections.push_back("out[i]");
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(n, 16, 128);
  for (auto _ : state) {
    auto report = executor.run(spec, binding, n, launch);
    benchmark::DoNotOptimize(report.stats.approx_items);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RegionExecutorThroughput);

}  // namespace

BENCHMARK_MAIN();
