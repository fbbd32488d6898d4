// Quickstart: approximate an expensive function over a vector, the
// library analogue of the paper's Figure 5 example.
//
//   #pragma omp target teams distribute parallel for
//   for (size_t i = 0; i < n; ++i) {
//     #pragma approx memo(out:3:8:0.5) level(warp) out(y[i])
//     y[i] = foo(x[i]);
//   }
//
// Build: cmake --build build --target quickstart
// Run:   ./build/examples/quickstart

#include <cmath>
#include <cstdio>
#include <vector>

#include "approx/region.hpp"
#include "apps/support.hpp"
#include "common/stats.hpp"
#include "offload/device.hpp"
#include "offload/target.hpp"
#include "sim/device.hpp"

using namespace hpac;

namespace {

// An expensive device function: a truncated series evaluation.
double foo(double x) {
  double acc = 0.0;
  for (int k = 1; k <= 64; ++k) acc += std::sin(k * x) / (k * k);
  return acc;
}

}  // namespace

int main() {
  const std::uint64_t n = 1u << 18;

  // A slowly varying input: exactly the temporal output locality TAF
  // exploits across each thread's grid-stride iterations.
  std::vector<double> x(n), y(n, 0.0);
  for (std::uint64_t i = 0; i < n; ++i) x[i] = 0.5 + 1e-5 * static_cast<double>(i);

  offload::Device device(sim::v100());
  approx::RegionExecutor executor(device.config());

  approx::RegionBinding region;
  region.in_dims = 1;
  region.out_dims = 1;
  apps::bind_gather(region, [&](std::uint64_t i, double* in) { in[0] = x[i]; });
  apps::bind_accurate(region, [&](std::uint64_t i, double* out) { out[0] = foo(x[i]); });
  apps::bind_constant_cost(region, 64.0 * 22.0);  // 64 sin() terms
  apps::bind_commit(region, [&](std::uint64_t i, const double* out) { y[i] = out[0]; });

  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(n, 64, 128);

  // Accurate reference.
  auto accurate = offload::target_parallel_for(device, executor, "none", region, n, launch);
  std::vector<double> reference = y;

  // Approximated run: TAF output memoization with warp-level decisions.
  std::fill(y.begin(), y.end(), 0.0);
  auto approx = offload::target_parallel_for(
      device, executor, "memo(out:3:8:0.5) level(warp) out(y[i])", region, n, launch);

  const double speedup = accurate.timing.seconds / approx.timing.seconds;
  const double mape = stats::mape_percent(reference, y);
  std::printf("quickstart: n=%llu grid-stride items/thread=64\n",
              static_cast<unsigned long long>(n));
  std::printf("  accurate kernel: %.3f ms\n", accurate.timing.seconds * 1e3);
  std::printf("  approx   kernel: %.3f ms (%.0f%% of items memoized)\n",
              approx.timing.seconds * 1e3, 100.0 * approx.stats.approx_ratio());
  std::printf("  speedup: %.2fx   MAPE: %.4f%%\n", speedup, mape);

  // Composition (the paper's Figure 2): perforation on the loop plus
  // memoization inside the surviving iterations.
  std::fill(y.begin(), y.end(), 0.0);
  auto composed = offload::target_parallel_for(
      device, executor, "perfo(small:4)", "memo(out:3:8:0.5) level(warp) out(y[i])", region,
      n, launch);
  std::printf("  composed perfo(small:4)+memo: %.3f ms (%.0f%% skipped, %.0f%% memoized)\n",
              composed.timing.seconds * 1e3,
              100.0 * static_cast<double>(composed.stats.skipped_items) / n,
              100.0 * static_cast<double>(composed.stats.approx_items) / n);
  return 0;
}
