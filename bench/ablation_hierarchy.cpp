// Hierarchy ablation (§3.1.2 / insight 5): thread- vs warp- vs block-
// level decision-making on a synthetic region whose lanes disagree about
// stability — the divergence worst case. 60% of items are perfectly
// stable (constant output), 40% vary; under grid-stride mapping every
// warp mixes both kinds, so thread-level decisions split each warp across
// the accurate and approximate paths on every step.
//
// Expected shape: thread-level shows divergent region executions and the
// worst time; warp/block majority eliminates divergence (forcing the
// minority), trading a little accuracy for speed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "approx/region.hpp"
#include "apps/support.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "pragma/spec.hpp"

using namespace hpac;

int main(int argc, char** argv) {
  bench::Options opts = bench::parse_options(argc, argv);
  bench::print_banner("Hierarchy ablation — thread vs warp vs block decisions",
                      "hierarchical decision-making eliminates approximation-induced "
                      "control divergence (Figure 11c mechanism)");

  constexpr std::uint64_t n = 1u << 16;
  auto f = [](std::uint64_t i) {
    // 60% stable lanes, 40% oscillating lanes, interleaved by index.
    if (i % 5 < 3) return 42.0;
    return 40.0 + 4.0 * std::sin(static_cast<double>(i));
  };
  std::vector<double> exact(n);
  for (std::uint64_t i = 0; i < n; ++i) exact[i] = f(i);

  for (const auto& device : opts.devices) {
    std::printf("--- platform: %s ---\n", device.name.c_str());
    TextTable table(
        {"level", "cycles", "divergent warp-regions", "MAPE %", "% approx", "forced approx"});
    for (auto level : {pragma::HierarchyLevel::kThread, pragma::HierarchyLevel::kWarp,
                       pragma::HierarchyLevel::kBlock}) {
      std::vector<double> out(n, 0.0);
      approx::RegionBinding binding;
      binding.out_dims = 1;
      apps::bind_accurate(binding, [&f](std::uint64_t i, double* o) { o[0] = f(i); });
      apps::bind_constant_cost(binding, 300.0);
      apps::bind_commit(binding, [&out](std::uint64_t i, const double* o) { out[i] = o[0]; });

      pragma::ApproxSpec spec;
      spec.technique = pragma::Technique::kTafMemo;
      spec.taf = pragma::TafParams{3, 16, 0.05};
      spec.level = level;
      spec.out_sections.push_back("out[i]");

      approx::RegionExecutor executor(device);
      const sim::LaunchConfig launch = sim::launch_for_items_per_thread(n, 64, 128);
      auto report = executor.run(spec, binding, n, launch);
      table.add_row({pragma::hierarchy_name(level),
                     bench::fmt(report.timing.critical_path_cycles, "%.0f"),
                     std::to_string(report.timing.divergent_regions),
                     bench::fmt(stats::mape_percent(exact, out), "%.4f"),
                     bench::fmt(100 * report.stats.approx_ratio(), "%.1f"),
                     std::to_string(report.stats.forced_approx)});
    }
    std::printf("%s\n", table.render().c_str());
  }
  return 0;
}
