// Custom application example: how a downstream user plugs their own
// offload kernel into HPAC-Offload and explores approximation configs.
//
// The "application" is a toy radial heat-diffusion stencil; the exercise
// shows the three integration steps:
//   1. describe the annotated region as a RegionBinding closure,
//   2. implement harness::Benchmark so the Explorer can drive it,
//   3. sweep clause configurations and pick one under an error budget.
//
// Run: ./build/examples/custom_app

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness/analysis.hpp"
#include "harness/explorer.hpp"
#include "pragma/parser.hpp"
#include "apps/support.hpp"
#include "sim/device.hpp"

using namespace hpac;

namespace {

class HeatStencil : public harness::Benchmark {
 public:
  HeatStencil() : grid_(1u << 14, 0.0) {
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      grid_[i] = std::exp(-1e-6 * static_cast<double>(i * i));  // hot spot at 0
    }
  }

  std::string name() const override { return "heat_stencil"; }

  harness::RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                         const sim::DeviceConfig& device) override {
    const std::uint64_t n = grid_.size();
    offload::Device dev(device);
    approx::RegionExecutor executor(device);
    std::vector<double> field = grid_;
    std::vector<double> next = field;
    harness::RunOutput output;

    approx::RegionBinding region;
    region.in_dims = 3;
    region.out_dims = 1;
    apps::bind_gather(region, [&](std::uint64_t i, double* in) {
      in[0] = field[i > 0 ? i - 1 : 0];
      in[1] = field[i];
      in[2] = field[i + 1 < n ? i + 1 : n - 1];
    });
    apps::bind_accurate(region, [&](std::uint64_t i, double* out) {
      const double left = field[i > 0 ? i - 1 : 0];
      const double right = field[i + 1 < n ? i + 1 : n - 1];
      out[0] = field[i] + 0.2 * (left - 2.0 * field[i] + right);
    });
    apps::bind_constant_cost(region, 40.0);
    apps::bind_commit(region, [&](std::uint64_t i, const double* out) { next[i] = out[0]; });

    const sim::LaunchConfig launch =
        sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
    for (int step = 0; step < 50; ++step) {
      apps::launch_kernel(dev, executor, spec, region, n, launch, &output.stats);
      std::swap(field, next);
      next = field;
    }
    output.timeline = dev.timeline();
    output.qoi = std::move(field);
    return output;
  }

 private:
  std::vector<double> grid_;
};

}  // namespace

int main() {
  HeatStencil app;
  harness::Explorer explorer(app, sim::v100());

  // Sweep a handful of TAF configurations at two launch geometries.
  for (const char* clause :
       {"memo(out:3:8:0.1) level(warp)", "memo(out:3:32:0.5) level(warp)",
        "memo(out:5:128:1.5) level(warp)", "perfo(small:4)", "perfo(fini:0.3)"}) {
    for (std::uint64_t ipt : {8ull, 64ull}) {
      auto record = explorer.run_config(pragma::parse_approx(clause), ipt);
      std::printf("%-32s ipt=%-3llu speedup %5.2fx  error %8.4f%%  approx %3.0f%%\n", clause,
                  static_cast<unsigned long long>(ipt), record.speedup, record.error_percent,
                  100.0 * record.approx_ratio);
    }
  }

  // Pick the best configuration under a 1% error budget, Figure-6 style.
  auto best = harness::best_under_error(explorer.db().records(), 1.0);
  if (best) {
    std::printf("\nbest under 1%% error: %s (ipt=%llu) -> %.2fx, %.4f%%\n",
                best->spec_text.c_str(),
                static_cast<unsigned long long>(best->items_per_thread), best->speedup,
                best->error_percent);
  }
  return 0;
}
