// Suite tour: run every reproduced benchmark (Table 1) once accurately and
// once under a representative TAF configuration on the V100-like device,
// and print speedup and quality loss — a miniature of the paper's Figure 6.
//
// Run: ./build/examples/suite_tour

#include <cstdio>

#include "apps/registry.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "harness/analysis.hpp"
#include "harness/explorer.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;

int main() {
  TextTable table({"benchmark", "metric", "best spec", "speedup", "error %", "approx %"});

  for (const std::string& name : apps::benchmark_names()) {
    auto bench = apps::make_benchmark(name);
    harness::Explorer explorer(*bench, sim::v100());

    // A handful of representative configurations per technique;
    // bench/hpac_repro does the real per-figure sweeps.
    for (const char* clause :
         {"memo(out:1:64:1.5) level(warp) out(q)", "memo(out:3:8:0.3) level(warp) out(q)",
          "memo(out:3:2:0.3) level(warp) out(q)", "perfo(fini:0.3)", "perfo(large:16)"}) {
      for (std::uint64_t ipt : bench->memo_items_axis()) {
        explorer.run_config(pragma::parse_approx(clause), ipt);
      }
    }
    const auto best = harness::best_under_error(explorer.db().records(), 10.0);
    if (best) {
      table.add_row({name,
                     bench->error_metric() == harness::ErrorMetric::kMcr ? "MCR" : "MAPE",
                     best->spec_text, strings::format("%.2fx", best->speedup),
                     strings::format("%.3g", best->error_percent),
                     strings::format("%.0f", 100.0 * best->approx_ratio)});
    } else {
      table.add_row({name,
                     bench->error_metric() == harness::ErrorMetric::kMcr ? "MCR" : "MAPE",
                     "none under 10% error", "-", "-", "-"});
    }
  }

  std::printf("%s", table.render().c_str());
  return 0;
}
