// hpac_explore — the execution-harness workflow as a command-line tool.
//
// Runs one of the reproduced benchmarks under an approximation directive
// (or a whole curated sweep) on a chosen platform and reports speedup,
// quality loss and approximation counters; optionally saves the result
// database as CSV. This is the library analogue of the paper's harness
// that "builds and executes the program ... and saves runtime
// information and error to a database" (§2.3).
//
// Examples:
//   hpac_explore --benchmark=lulesh --clause="memo(out:3:8:0.5) level(warp)" --ipt=8
//   hpac_explore --benchmark=kmeans --device=mi250x --sweep=taf --csv=kmeans.csv
//   hpac_explore --benchmark=blackscholes --clause="perfo(fini:0.3)" --ipt=1

#include <cstdio>
#include <cstdlib>
#include <string>

#include "approx/audit.hpp"
#include "approx/region.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "harness/analysis.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --benchmark=NAME [--device=v100|mi250x] [--ipt=N]\n"
               "          (--clause=\"...\" | --sweep=taf|iact|perfo)\n"
               "          [--csv=FILE] [--audit=off|report|enforce]\n\n"
               "--audit validates every independent_items declaration at runtime\n"
               "(a check of its declared extents + a differential re-run); report\n"
               "annotates flagged records, enforce makes them infeasible.\n\nbenchmarks:",
               argv0);
  for (const auto& name : apps::benchmark_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// A positive item count, the whole value: "8x", "-1" and "0" print the
/// usage text rather than running with a misread count.
std::uint64_t parse_ipt(const std::string& value, const char* argv0) {
  long long parsed = 0;
  if (!strings::parse_int(value, parsed) || parsed <= 0) usage(argv0);
  return static_cast<std::uint64_t>(parsed);
}

void print_record(const harness::RunRecord& r) {
  if (!r.feasible) {
    std::printf("%-44s ipt=%-4llu INFEASIBLE: %s\n", r.spec_text.c_str(),
                static_cast<unsigned long long>(r.items_per_thread), r.note.c_str());
    return;
  }
  std::printf("%-44s ipt=%-4llu speedup %6.2fx  error %10.4g%%  approx %5.1f%%\n",
              r.spec_text.c_str(), static_cast<unsigned long long>(r.items_per_thread),
              r.speedup, r.error_percent, 100.0 * r.approx_ratio);
  if (!r.note.empty()) {
    std::printf("%-44s      ^ %s\n", "", r.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string benchmark, clause, sweep, csv;
  std::string device = "v100";
  std::string audit = "off";
  std::uint64_t ipt = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--benchmark")) benchmark = *v;
    else if (auto v2 = value("--device")) device = *v2;
    else if (auto v3 = value("--clause")) clause = *v3;
    else if (auto v4 = value("--sweep")) sweep = *v4;
    else if (auto v5 = value("--csv")) csv = *v5;
    else if (auto v6 = value("--ipt")) ipt = parse_ipt(*v6, argv[0]);
    else if (auto v7 = value("--audit")) audit = *v7;
    else usage(argv[0]);
  }
  if (benchmark.empty() || (clause.empty() && sweep.empty())) usage(argv[0]);

  const auto audit_mode = approx::audit::audit_mode_from_string(audit);
  if (!audit_mode) usage(argv[0]);
  if (*audit_mode != approx::audit::AuditMode::kOff) {
    approx::RegionExecutor::set_default_audit(*audit_mode);
    std::printf("commit-conflict audit: %s (with differential re-runs)\n",
                approx::audit::to_string(*audit_mode));
  }

  try {
    auto app = apps::make_benchmark(benchmark);
    const sim::DeviceConfig dev = sim::device_by_name(device);
    harness::Explorer explorer(*app, dev);
    std::printf("benchmark %s on %s (%d SMs, warp %d), metric %s\n\n", benchmark.c_str(),
                dev.name.c_str(), dev.num_sms, dev.warp_size,
                app->error_metric() == harness::ErrorMetric::kMcr ? "MCR" : "MAPE");

    if (!clause.empty()) {
      print_record(explorer.run_config(pragma::parse_approx(clause), ipt));
    } else {
      std::vector<pragma::ApproxSpec> specs;
      if (sweep == "taf") {
        specs = harness::curated_taf_specs(harness::table2::hierarchies());
      } else if (sweep == "iact") {
        specs = harness::curated_iact_specs(dev.warp_size, harness::table2::hierarchies());
      } else if (sweep == "perfo") {
        specs = harness::curated_perfo_specs();
      } else {
        usage(argv[0]);
      }
      explorer.sweep(specs, app->memo_items_axis());
      for (const auto& r : explorer.db().records()) print_record(r);
      const auto best = harness::best_under_error(explorer.db().records(), 10.0);
      if (best) {
        std::printf("\nbest under 10%% error: ");
        print_record(*best);
      } else {
        std::printf("\nno configuration under 10%% error\n");
      }
    }
    if (!csv.empty()) {
      explorer.db().save(csv);
      std::printf("saved %zu records to %s\n", explorer.db().size(), csv.c_str());
    }
  } catch (const hpac::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
