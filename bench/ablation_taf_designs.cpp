// Figure 4 ablation: the three TAF algorithm designs on a parallel loop.
//
//  (b) CPU algorithm — threads execute contiguous chunks; TAF's spatial-
//      locality assumption holds and each thread's state machine sees
//      neighboring iterations.
//  (c) semantically-equivalent GPU port — adjacent GPU threads execute
//      adjacent iterations but must *serialize* on the previous thread's
//      TAF state to preserve the sliding-window order.
//  (d) hpac-offload grid-stride TAF — every thread runs a private state
//      machine over its grid-stride iterations; no inter-thread
//      dependencies, spatial locality relaxed.
//
// The bench measures modeled cycles and quality for each design on a
// smooth synthetic workload: (c) matches (b)'s approximation pattern but
// pays lane-serialization; (d) restores parallelism at a small accuracy
// cost — the paper's argument for relaxing the locality assumption.

#include <cmath>
#include <cstdio>
#include <vector>

#include "approx/region.hpp"
#include "approx/taf.hpp"
#include "apps/support.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "pragma/parser.hpp"
#include "sim/shared_memory.hpp"

using namespace hpac;

namespace {

constexpr std::uint64_t kN = 1u << 16;
constexpr double kRegionCost = 200.0;

double f(std::uint64_t i) { return 10.0 + std::sin(static_cast<double>(i) * 1e-3); }

struct DesignResult {
  double cycles = 0;
  double mape = 0;
  double approx_ratio = 0;
};

/// (b)/(c): TAF state follows iteration order. For the CPU design each of
/// `threads` workers owns a contiguous chunk and its own state; cycles are
/// the max chunk cost over workers. For the serialized GPU design the
/// *same* per-chunk traces execute on warps whose lanes must wait for each
/// other, so a warp-step costs the sum of its lanes' path costs.
DesignResult ordered_taf(const pragma::TafParams& params, int threads, bool serialized_gpu,
                         int warp_size, const std::vector<double>& exact) {
  DesignResult result;
  std::vector<double> out(kN, 0.0);
  std::uint64_t approx_count = 0;
  const std::uint64_t chunk = (kN + threads - 1) / static_cast<std::uint64_t>(threads);
  double max_worker_cycles = 0;
  double serialized_cycles = 0;
  for (int t = 0; t < threads; ++t) {
    std::vector<double> storage(approx::TafState::storage_doubles(params.history_size, 1));
    approx::TafState state(params, 1, storage);
    double worker_cycles = 0;
    const std::uint64_t begin = static_cast<std::uint64_t>(t) * chunk;
    const std::uint64_t end = std::min(kN, begin + chunk);
    for (std::uint64_t i = begin; i < end; ++i) {
      double value[1];
      if (state.should_approximate()) {
        state.predict(value);
        worker_cycles += 4.0;
        ++approx_count;
      } else {
        value[0] = f(i);
        state.record_accurate(value);
        worker_cycles += kRegionCost;
      }
      out[i] = value[0];
    }
    max_worker_cycles = std::max(max_worker_cycles, worker_cycles);
    serialized_cycles += worker_cycles;  // lanes of a warp serialize
  }
  // CPU: workers run in parallel. Serialized GPU: within each warp, lanes
  // chain; warps run in parallel, so divide the total by the warp count.
  if (serialized_gpu) {
    const double warps = static_cast<double>(threads) / warp_size;
    result.cycles = serialized_cycles / std::max(1.0, warps);
  } else {
    result.cycles = max_worker_cycles;
  }
  result.mape = stats::mape_percent(exact, out);
  result.approx_ratio = static_cast<double>(approx_count) / static_cast<double>(kN);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts = bench::parse_options(argc, argv);
  bench::print_banner("Figure 4 ablation — TAF algorithm designs",
                      "the serialized GPU port loses the parallelism TAF's locality "
                      "assumption demands; grid-stride TAF restores it");

  const pragma::TafParams params{2, 2, 0.5};
  std::vector<double> exact(kN);
  for (std::uint64_t i = 0; i < kN; ++i) exact[i] = f(i);

  const sim::DeviceConfig device = opts.devices.front();
  TextTable table({"design", "modeled cycles", "MAPE %", "% approximated"});

  // (b) CPU, 44 worker threads as on the paper's Power9 node.
  DesignResult cpu = ordered_taf(params, 44, false, device.warp_size, exact);
  table.add_row({"(b) CPU chunked", bench::fmt(cpu.cycles, "%.0f"),
                 bench::fmt(cpu.mape, "%.4f"), bench::fmt(100 * cpu.approx_ratio, "%.1f")});

  // (c) serialized GPU port: adjacent lanes own adjacent iterations and
  // chain on each other's state.
  DesignResult ser = ordered_taf(params, 4096, true, device.warp_size, exact);
  table.add_row({"(c) GPU serialized", bench::fmt(ser.cycles, "%.0f"),
                 bench::fmt(ser.mape, "%.4f"), bench::fmt(100 * ser.approx_ratio, "%.1f")});

  // (d) hpac-offload grid-stride TAF via the real executor.
  {
    std::vector<double> out(kN, 0.0);
    approx::RegionBinding binding;
    binding.out_dims = 1;
    apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = f(i); });
    apps::bind_constant_cost(binding, kRegionCost);
    apps::bind_commit(binding, [&out](std::uint64_t i, const double* o) { out[i] = o[0]; });
    approx::RegionExecutor executor(device);
    pragma::ApproxSpec spec;
    spec.technique = pragma::Technique::kTafMemo;
    spec.taf = params;
    spec.out_sections.push_back("out[i]");
    const sim::LaunchConfig launch = sim::launch_for_items_per_thread(kN, 16, 128);
    auto report = executor.run(spec, binding, kN, launch);
    table.add_row({"(d) grid-stride (hpac-offload)",
                   bench::fmt(report.timing.critical_path_cycles, "%.0f"),
                   bench::fmt(stats::mape_percent(exact, out), "%.4f"),
                   bench::fmt(100 * report.stats.approx_ratio(), "%.1f")});
  }

  std::printf("%s\n", table.render().c_str());
  return 0;
}
