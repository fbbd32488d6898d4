// hpac_repro: the paper's evaluation (Figures 3 and 6-12, Table 2, the
// §3.1.2 hierarchy and the footnote 3 replacement policy) driven by two
// tables. kSweeps says what each figure runs; every sweep writes
// <stem>_<device>.csv under --out-dir and prints its detail tables. kClaims
// says what the paper reports about those records. The closing scorecard
// prints every claim's modeled value and HOLDS/FAILS (with a diagnosis for
// each failure), and <out-dir>/BENCH_repro.json records the same rows at
// printed precision. Failing claims stay visible; the run exits 0.
//
// Flags: --device=NAME picks a sim::device_by_name preset (repeatable;
// default v100 and mi250x); --quick or --full sweeps the Table 2 grid at
// that density instead of the curated configurations; --out-dir=DIR
// (default bench_results) receives the CSVs and the record.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "approx/region.hpp"
#include "apps/registry.hpp"
#include "apps/support.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "harness/analysis.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;
using namespace hpac::harness;
using pragma::ApproxSpec;
using pragma::HierarchyLevel;
using pragma::Technique;
using Dev = sim::DeviceConfig;
using Records = std::vector<RunRecord>;

namespace {

constexpr double kMaxError = 10.0;  // Figure 6's quality bound, used throughout
constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
constexpr Technique kPerfo = Technique::kPerforation, kTaf = Technique::kTafMemo,
                    kIact = Technique::kIactMemo;
constexpr Technique kTechniques[] = {kPerfo, kTaf, kIact};

// --- Options and output ---------------------------------------------------------

struct Options {
  std::vector<Dev> devices;  ///< platforms to evaluate
  SweepDensity density = SweepDensity::kQuick;
  bool curated_only = true;  ///< default fixed-budget sweep; --full widens
  std::string out_dir = "bench_results";
};

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      opts.density = SweepDensity::kFull;
      opts.curated_only = false;
    } else if (arg == "--quick") {
      opts.density = SweepDensity::kQuick;
      opts.curated_only = false;
    } else if (arg.rfind("--device=", 0) == 0) {
      // Aliases of an already-selected preset (--device=v100
      // --device=nvidia) are deduplicated so a device is never swept — and
      // its CSV never overwritten — twice.
      try {
        Dev device = sim::device_by_name(arg.substr(9));
        bool duplicate = false;
        for (const auto& existing : opts.devices) duplicate |= existing.name == device.name;
        if (!duplicate) opts.devices.push_back(std::move(device));
      } catch (const Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      opts.out_dir = arg.substr(10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--full|--quick] [--device=v100|mi250x]... [--out-dir=DIR]\n"
                   "  default: curated fixed-budget sweep on the paper's two platforms\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (opts.devices.empty()) {
    opts.devices.push_back(sim::v100());
    opts.devices.push_back(sim::mi250x());
  }
  return opts;
}

void save_db(const ResultDb& db, const Options& opts, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create %s: %s\n", opts.out_dir.c_str(),
                 ec.message().c_str());
    return;
  }
  const std::string path = opts.out_dir + "/" + name + ".csv";
  db.save(path);
  std::printf("[saved %zu records to %s]\n\n", db.size(), path.c_str());
}

std::string fmt(double v, const char* format = "%.3g") { return strings::format(format, v); }

// --- Spec generators ----------------------------------------------------------

using SpecGen = std::vector<ApproxSpec> (*)(const Options&, int warp_size);

std::vector<ApproxSpec> taf(const Options& o, int) {
  return o.curated_only ? curated_taf_specs(table2::hierarchies()) : taf_specs(o.density);
}
std::vector<ApproxSpec> iact(const Options& o, int warp) {
  return o.curated_only ? curated_iact_specs(warp, table2::hierarchies())
                        : iact_specs(o.density, warp);
}
std::vector<ApproxSpec> perfo(const Options& o, int) {
  return o.curated_only ? curated_perfo_specs() : perfo_specs(o.density);
}

// Binomial Options prices one option per block, so Figure 8 decides at
// team level only; thread and warp variants collapse into one spec.
std::vector<ApproxSpec> block_level(std::vector<ApproxSpec> specs) {
  std::vector<ApproxSpec> out;
  for (auto& spec : specs) {
    spec.level = HierarchyLevel::kBlock;
    bool dup = false;
    for (const auto& have : out) dup = dup || have.to_string() == spec.to_string();
    if (!dup) out.push_back(std::move(spec));
  }
  return out;
}
std::vector<ApproxSpec> block_taf(const Options& o, int w) { return block_level(taf(o, w)); }
std::vector<ApproxSpec> block_iact(const Options& o, int w) { return block_level(iact(o, w)); }
std::vector<ApproxSpec> binomial_fig8c(const Options&, int) {
  return {pragma::parse_approx("memo(out:3:512:20) level(team) out(price[i])")};
}
// MiniFE's SpMV rows have no uniform input width, so this one is rejected.
std::vector<ApproxSpec> minife_iact(const Options&, int) {
  return {pragma::parse_approx("memo(in:4:0.5:2) in(row[i]) out(y[i])")};
}
// Figure 11c pairs thread and warp decisions at every RSD threshold.
std::vector<ApproxSpec> lavamd_taf(const Options&, int) {
  std::vector<ApproxSpec> specs;
  for (double thr : {0.3, 0.6, 0.9, 1.2, 1.5, 3.0, 5.0, 20.0}) {
    for (int p : {2, 4, 16, 128}) {
      for (const char* level : {"thread", "warp"}) {
        specs.push_back(pragma::parse_approx(
            strings::format("memo(out:3:%d:%g) level(%s) out(force[i])", p, thr, level)));
      }
    }
  }
  return specs;
}
// `clause` (two %g fields) parsed at every (x, y), x outermost.
std::vector<ApproxSpec> grid(const char* clause, std::initializer_list<double> xs,
                             std::initializer_list<double> ys) {
  std::vector<ApproxSpec> specs;
  for (double x : xs) {
    for (double y : ys) specs.push_back(pragma::parse_approx(strings::format(clause, x, y)));
  }
  return specs;
}
// Figure 12a's legend: K-Means history sizes 2..16.
std::vector<ApproxSpec> kmeans_taf(const Options&, int) {
  return grid("memo(out:%g:64:%g) level(warp) out(membership[i])", {2, 3, 5, 8, 16},
              {0.3, 0.9, 1.5, 5.0});
}
std::vector<ApproxSpec> kmeans_iact(const Options&, int) {
  return grid("memo(in:%g:%g:2) in(obs[i]) out(membership[i])", {1, 2, 4, 8},
              {0.1, 0.3, 0.5, 0.9});
}
// Footnote 3: Blackscholes iACT at every (tSize, threshold), once with
// round-robin and once with CLOCK replacement.
std::vector<ApproxSpec> blackscholes_replacement(const Options&, int) {
  auto specs = grid("memo(in:%g:%g:2) in(opt[i]) out(price[i])", {2, 4, 8}, {0.5, 0.9, 5.0});
  const std::size_t rr = specs.size();
  for (std::size_t i = 0; i < rr; ++i) {
    specs.push_back(specs[i]);
    specs.back().iact->clock_replacement = true;
  }
  return specs;
}

// --- Helpers over records -----------------------------------------------------

template <typename Pred>
Records where(const Records& rs, Pred keep) {
  Records out;
  for (const auto& r : rs) {
    if (keep(r)) out.push_back(r);
  }
  return out;
}
Records of(const Records& rs, Technique t) {
  return where(rs, [t](const RunRecord& r) { return r.technique == t; });
}
// The best qualifying record; a default record (speedup 0) when none qualifies.
RunRecord best_record(const Records& rs) {
  return best_under_error(rs, kMaxError).value_or(RunRecord{});
}
double best(const Records& rs, Technique t, double max_error = kMaxError) {
  return best_under_error(of(rs, t), max_error).value_or(RunRecord{}).speedup;
}
double max_speedup(const Records& rs, Technique t) {
  double m = 0;
  for (const auto& r : of(rs, t)) m = r.feasible ? std::max(m, r.speedup) : m;
  return m;
}
double mean_error(const Records& rs, Technique t) {
  std::vector<double> errors;
  for (const auto& r : of(rs, t)) {
    if (r.feasible && std::isfinite(r.error_percent)) errors.push_back(r.error_percent);
  }
  return errors.empty() ? kNone : stats::mean(errors);
}
double median(const std::vector<double>& xs) {
  return xs.empty() ? kNone : stats::percentile(xs, 50);
}

// Best <10 % speedup per (device, benchmark), one slot per kTechniques
// entry; 0 where no configuration qualifies.
std::map<std::pair<std::string, std::string>, std::array<double, 3>> bests(const Records& rs) {
  std::map<std::pair<std::string, std::string>, std::array<double, 3>> out;
  for (const auto& r : rs) {
    auto& slot = out[{r.device, r.benchmark}];
    for (std::size_t t = 0; t < 3; ++t) {
      if (r.technique == kTechniques[t] && r.feasible && r.error_percent < kMaxError) {
        slot[t] = std::max(slot[t], r.speedup);
      }
    }
  }
  return out;
}

// Share of apps whose best qualifying technique is kTechniques[t] (with
// `worst`: whose slowest qualifying best is, among apps where it and
// another technique qualify).
double share_where(const Records& rs, std::size_t t, bool worst) {
  int hits = 0, apps = 0;
  for (const auto& [key, b] : bests(rs)) {
    const auto qualifying = std::count_if(b.begin(), b.end(), [](double s) { return s > 0; });
    if (qualifying == 0 || (worst && (b[t] <= 0 || qualifying < 2))) continue;
    ++apps;
    double pick = worst ? b[t] : 0.0;
    for (double s : b) {
      if (s > 0) pick = worst ? std::min(pick, s) : std::max(pick, s);
    }
    hits += b[t] == pick;
  }
  return apps ? static_cast<double>(hits) / apps : kNone;
}

double peak_ipt(const Records& rs, const Dev& = {}) {
  const RunRecord* peak = nullptr;
  for (const auto& r : rs) {
    if (r.feasible && (!peak || r.speedup > peak->speedup)) peak = &r;
  }
  return peak ? static_cast<double>(peak->items_per_thread) : kNone;
}

// Median TAF speedup of the records `high` selects, over the median of the rest.
double median_ratio(const Records& rs, bool (*high)(const RunRecord&)) {
  std::vector<double> hi, lo;
  for (const auto& r : of(rs, kTaf)) {
    if (r.feasible) (high(r) ? hi : lo).push_back(r.speedup);
  }
  return median(hi) / median(lo);
}

// Per RSD threshold: median warp-level TAF speedup over median thread-level.
std::vector<double> warp_over_thread(const Records& rs) {
  std::map<double, std::array<std::vector<double>, 2>> by_threshold;
  for (const auto& r : of(rs, kTaf)) {
    if (r.feasible) {
      by_threshold[r.threshold][r.level == HierarchyLevel::kWarp].push_back(r.speedup);
    }
  }
  std::vector<double> ratios;
  for (const auto& [threshold, s] : by_threshold) ratios.push_back(median(s[1]) / median(s[0]));
  return ratios;
}

// --- Figure sweeps and their detail tables --------------------------------------

struct Pass {
  SpecGen specs;
  std::vector<std::uint64_t> ipt;  ///< empty: the app's memo axis, or the density's axis
};

struct Sweep {
  const char* stem;  ///< CSV name: <stem>_<device>.csv
  const char* title;
  std::vector<std::string> apps;
  std::vector<Pass> passes;
  /// Figure-specific tables, printed after the best-per-technique one.
  void (*detail)(const std::vector<Records>& per_device) = nullptr;
};

void print_error_distribution(const std::vector<Records>& per_device) {
  TextTable dist({"device", "benchmark", "configs < 10%", "err min", "err median", "err max"});
  for (const auto& rs : per_device) {
    for (const std::string& name : apps::benchmark_names()) {
      const auto errors =
          errors_under(where(rs, [&](const RunRecord& r) { return r.benchmark == name; }),
                       kMaxError);
      const auto pct = [&](double p) {
        return errors.empty() ? std::string("-") : fmt(stats::percentile(errors, p));
      };
      dist.add_row({rs.front().device, name, std::to_string(errors.size()), pct(0), pct(50),
                    pct(100)});
    }
  }
  std::printf("error distribution under 10%%:\n%s\n", dist.render().c_str());
}

void print_ipt_curve(const std::vector<Records>& per_device) {
  TextTable table({"items/thread", "platform", "speedup", "% approximated"});
  for (const auto& rs : per_device) {
    for (const auto& r : rs) {
      table.add_row({std::to_string(r.items_per_thread), r.device,
                     strings::format("%.3f", r.speedup),
                     strings::format("%.1f", 100.0 * r.approx_ratio)});
    }
  }
  std::printf("panel (c): speedup vs items per thread\n%s\n", table.render().c_str());
}

void print_box_stats(const std::vector<Records>& per_device) {
  TextTable boxes({"device", "group", "n", "min", "q1", "median", "q3", "max"});
  for (const auto& rs : per_device) {
    for (const auto& g : group_box_stats(of(rs, kTaf), [](const RunRecord& r) {
           return strings::format("T=%-4g %s", r.threshold,
                                  pragma::hierarchy_name(r.level).c_str());
         })) {
      boxes.add_row({rs.front().device, g.key, std::to_string(g.count), fmt(g.box.min),
                     fmt(g.box.q1), fmt(g.box.median), fmt(g.box.q3), fmt(g.box.max)});
    }
  }
  std::printf("panel (c): TAF speedup by threshold x hierarchy\n%s\n", boxes.render().c_str());
}

void print_regression(const std::vector<Records>& per_device) {
  TextTable table({"device", "runs", "slope", "R^2"});
  for (const auto& rs : per_device) {
    const auto corr = convergence_correlation(of(rs, kTaf));
    table.add_row({rs.front().device, std::to_string(corr.time_speedup.size()),
                   strings::format("%.3f", corr.regression.slope),
                   strings::format("%.3f", corr.regression.r2)});
  }
  std::printf("panel (c): TAF time speedup vs convergence speedup\n%s\n", table.render().c_str());
}

const std::vector<Sweep> kSweeps = {
    {"fig06", "Figure 6: highest speedup with error < 10%", apps::benchmark_names(),
     {{taf, {}}, {iact, {}}, {perfo, {1, 8}}}, print_error_distribution},
    {"fig07_lulesh", "Figure 7: LULESH, perforation / TAF / iACT", {"lulesh"},
     {{perfo, {1, 8, 64, 512}}, {taf, {4, 8, 32, 128, 512}}, {iact, {8, 64}}}},
    {"fig08ab_binomial", "Figure 8a/b: Binomial Options, block-level TAF / iACT",
     {"binomial_options"}, {{block_taf, {32, 128, 512}}, {block_iact, {32, 128}}}},
    {"fig08c_binomial", "Figure 8c: Binomial Options, parallelism vs approximation",
     {"binomial_options"}, {{binomial_fig8c, {1, 4, 16, 64, 256, 1024, 4096, 16384}}},
     print_ipt_curve},
    {"fig09ab_leukocyte", "Figure 9a/b: Leukocyte, TAF / iACT", {"leukocyte"},
     {{taf, {8, 64, 256}}, {iact, {8, 64}}}},
    {"fig09c_minife", "Figure 9c: MiniFE, TAF (iACT rejected)", {"minife"},
     {{taf, {8, 64}}, {minife_iact, {8}}}},
    {"fig10ab_blackscholes", "Figure 10a/b: Blackscholes (kernel time), TAF / iACT",
     {"blackscholes"}, {{taf, {8, 64, 512}}, {iact, {8, 64}}}},
    {"fig11_lavamd", "Figure 11: LavaMD, TAF / iACT, thread vs warp", {"lavamd"},
     {{lavamd_taf, {2, 4, 8}}, {iact, {2, 4}}}, print_box_stats},
    {"fig12_kmeans", "Figure 12: K-Means, TAF / iACT, convergence", {"kmeans"},
     {{kmeans_taf, {8, 32, 128, 256}}, {kmeans_iact, {8, 64}}}, print_regression},
    {"fn3_replacement", "Footnote 3: Blackscholes iACT, round-robin vs CLOCK replacement",
     {"blackscholes"}, {{blackscholes_replacement, {64}}}},
};

Records run_sweep(const Sweep& sweep, const Options& opts, const Dev& device) {
  ResultDb db;
  for (const std::string& name : sweep.apps) {
    auto app = apps::make_benchmark(name);
    Explorer explorer(*app, device);
    for (const Pass& pass : sweep.passes) {
      const auto ipt = !pass.ipt.empty()    ? pass.ipt
                       : opts.curated_only ? app->memo_items_axis()
                                           : items_per_thread_axis(opts.density);
      explorer.sweep(pass.specs(opts, device.warp_size), ipt);
    }
    for (const auto& r : explorer.db().records()) db.add(r);
  }
  save_db(db, opts, std::string(sweep.stem) + "_" + device.name);
  return db.records();
}

// Best <10 % configuration per (device, benchmark, technique) of a sweep.
void print_best_table(const Sweep& sweep, const std::vector<Records>& per_device) {
  TextTable table({"device", "benchmark", "technique", "best speedup", "error %", "ipt", "spec"});
  for (const auto& rs : per_device) {
    for (const std::string& name : sweep.apps) {
      for (Technique t : kTechniques) {
        const Records app =
            where(rs, [&](const RunRecord& r) { return r.benchmark == name && r.technique == t; });
        if (app.empty()) continue;
        const std::string tech = pragma::technique_name(t);
        if (const auto b = best_under_error(app, kMaxError)) {
          table.add_row({b->device, name, tech, strings::format("%.2fx", b->speedup),
                         strings::format("%.3f", b->error_percent),
                         std::to_string(b->items_per_thread), b->spec_text});
        } else {
          const bool any_feasible =
              std::any_of(app.begin(), app.end(), [](const RunRecord& r) { return r.feasible; });
          table.add_row({app.front().device, name, tech, "-", "-", "-",
                         any_feasible ? "excluded: error always >= 10%" : "not applicable"});
        }
      }
    }
  }
  std::printf("best configuration under 10%% error:\n%s\n", table.render().c_str());
}

// --- Figures without a sweep ----------------------------------------------------

// Figure 3 sizes per-thread iACT tables at 5 entries of 36 bytes each.
constexpr double kFig3TableBytes = 5.0 * 36.0;

void print_fig03(const std::vector<Dev>& devices) {
  std::printf("=== Figure 3: per-thread memoization tables vs. V100 global memory ===\n\n");
  TextTable table({"threads (2^x)", "threads", "table bytes total", "% of 16 GB"});
  for (int exp = 14; exp <= 27; ++exp) {
    const double total = static_cast<double>(1ull << exp) * kFig3TableBytes;
    table.add_row({strings::format("%d", exp), strings::format("%llu", 1ull << exp),
                   strings::format("%.3e", total),
                   strings::format("%.1f", 100.0 * total /
                                               static_cast<double>(sim::v100().global_mem_bytes))});
  }
  std::printf("%s\nhpac-offload design (shared-memory AC state, resident threads only):\n",
              table.render().c_str());
  for (const auto& device : devices) {
    const double resident = static_cast<double>(device.max_resident_threads());
    std::printf("  %-8s resident threads %8.0f -> %6.2f MB total AC state "
                "(vs %.0f GB for 2^27 per-thread tables)\n",
                device.name.c_str(), resident, resident * kFig3TableBytes / (1 << 20),
                static_cast<double>(1ull << 27) * kFig3TableBytes / 1e9);
  }
  std::printf("\n");
}

template <typename T>
std::string join(const std::vector<T>& xs) {
  std::string out;
  for (const T& x : xs) {
    if (!out.empty()) out += ",";
    out += strings::format("%g", static_cast<double>(x));
  }
  return out;
}

void print_table2(const std::vector<Dev>& devices) {
  std::printf("=== Table 2: evaluation parameter space ===\n\n");
  TextTable table({"axis", "values"});
  table.add_row({"TAF hSize", join(table2::taf_history_sizes())});
  table.add_row({"TAF pSize", join(table2::taf_prediction_sizes())});
  table.add_row({"TAF thresh", join(table2::memo_out_thresholds())});
  table.add_row({"iACT tPerWarp", join(table2::iact_tables_per_warp()) + " (64: AMD only)"});
  table.add_row({"iACT tSize", join(table2::iact_table_sizes())});
  table.add_row({"iACT thresh", join(table2::memo_in_thresholds())});
  table.add_row({"perfo skip (small/large)", join(table2::perfo_skips())});
  table.add_row({"perfo skipPercent (ini/fini)", join(table2::perfo_skip_percents())});
  table.add_row({"hierarchy", "thread,warp"});
  table.add_row({"items per thread", join(table2::items_per_thread())});
  for (const auto& d : devices) {
    table.add_row({"configs per benchmark, " + d.name,
                   std::to_string(full_config_count(d.warp_size))});
  }
  std::printf("%s\n", table.render().c_str());
}

// Figure 10c: Blackscholes prices under TAF hSize 5 / pSize 512 as the RSD
// threshold varies. 24 items per thread does not divide the input's tiling
// period, so each thread walks distinct options and the threshold decides
// how readily unrepresentative values are emitted. Returns one record per
// threshold (spec and error only) for the claims.
Records run_fig10c(const Dev& device) {
  std::printf("=== Figure 10c: Blackscholes prices vs RSD threshold (%s) ===\n\n",
              device.name.c_str());
  auto app = apps::make_benchmark("blackscholes");
  const std::vector<double> exact = Explorer(*app, device).baseline().qoi;
  TextTable table({"threshold", "MAPE %", "mean price", "p5", "p50", "p95"});
  auto describe = [&](const std::string& label, const std::vector<double>& prices, double mape) {
    table.add_row({label, strings::format("%.4f", mape), fmt(stats::mean(prices), "%.4f"),
                   fmt(stats::percentile(prices, 5), "%.4f"),
                   fmt(stats::percentile(prices, 50), "%.4f"),
                   fmt(stats::percentile(prices, 95), "%.4f")});
  };
  describe("exact", exact, 0.0);
  Records out;
  for (double threshold : {0.5, 1.0, 2.0, 3.0, 5.0, 20.0}) {
    const ApproxSpec spec =
        pragma::parse_approx(strings::format("memo(out:5:512:%g) out(price[i])", threshold));
    const RunOutput approx = apps::make_benchmark("blackscholes")->run(spec, 24, device);
    RunRecord r;
    r.device = device.name;
    r.set_spec(spec);
    r.error_percent = stats::mape_percent(exact, approx.qoi);
    describe(strings::format("T=%g", threshold), approx.qoi, r.error_percent);
    out.push_back(std::move(r));
  }
  std::printf("%s\n", table.render().c_str());
  return out;
}

// --- Claim statistics -----------------------------------------------------------
// Each reads the records of one figure on the claim's device(s).

double fill_log2(const Records&, const Dev& d) {
  return std::log2(static_cast<double>(d.global_mem_bytes) / kFig3TableBytes);
}
double state_reduction(const Records&, const Dev& d) {
  return static_cast<double>(1ull << 27) / static_cast<double>(d.max_resident_threads());
}
double taf_best_share(const Records& rs, const Dev&) { return share_where(rs, 1, false); }
double iact_worst_share(const Records& rs, const Dev&) { return share_where(rs, 2, true); }
double minife_qualifying(const Records& rs, const Dev&) {
  return static_cast<double>(where(rs, [](const RunRecord& r) {
                               return r.benchmark == "minife" && r.feasible &&
                                      r.approx_ratio > 0 && r.error_percent < kMaxError;
                             }).size());
}
double max_best(const Records& rs, const Dev&) { return best_record(rs).speedup; }
// The paper's headline: one best per (device, benchmark, technique).
double geomean_of_bests(const Records& rs, const Dev&) {
  Records per_device = rs;
  for (auto& r : per_device) r.benchmark += "@" + r.device;
  return geomean_best_speedup(per_device, kMaxError);
}
double best_perfo_7(const Records& rs, const Dev&) { return best(rs, kPerfo, 7.0); }
double best_taf(const Records& rs, const Dev&) { return best(rs, kTaf); }
double best_iact(const Records& rs, const Dev&) { return best(rs, kIact); }
double max_iact(const Records& rs, const Dev&) { return max_speedup(rs, kIact); }
double max_any(const Records& rs, const Dev&) {
  return std::max(max_speedup(rs, kTaf), max_speedup(rs, kIact));
}
double iact_over_taf_error(const Records& rs, const Dev&) {
  return mean_error(rs, kIact) / mean_error(rs, kTaf);
}
double fini_over_ini(const Records& rs, const Dev&) {
  std::vector<double> fini, ini;
  for (const auto& r : rs) {
    if (!r.feasible || r.items_per_thread != 1) continue;
    if (r.perfo_kind == "fini") fini.push_back(r.error_percent);
    if (r.perfo_kind == "ini") ini.push_back(r.error_percent);
  }
  return fini.empty() || ini.empty() ? kNone : stats::mean(fini) / stats::mean(ini);
}
double last_over_peak(const Records& rs, const Dev&) {
  double peak = 0;
  for (const auto& r : rs) peak = std::max(peak, r.speedup);
  return rs.empty() ? kNone : rs.back().speedup / peak;
}
double amd_over_nv_peak(const Records& rs, const Dev&) {
  const auto on = [&](const char* device) {
    return peak_ipt(where(rs, [&](const RunRecord& r) { return r.device == device; }));
  };
  return on("mi250x") / on("v100");
}
double min_approx_taf_error(const Records& rs, const Dev&) {
  double lo = kNone;
  for (const auto& r : of(rs, kTaf)) {
    if (r.feasible && r.approx_ratio > 0) lo = std::fmin(lo, r.error_percent);
  }
  return lo;
}
double feasible_iact(const Records& rs, const Dev&) {
  return static_cast<double>(
      where(of(rs, kIact), [](const RunRecord& r) { return r.feasible; }).size());
}
double best_taf_psize(const Records& rs, const Dev&) {
  return best_record(of(rs, kTaf)).prediction_size;
}
double best_taf_threshold(const Records& rs, const Dev&) {
  return best_record(of(rs, kTaf)).threshold;
}
double max_error_below_t3(const Records& rs, const Dev&) {
  double hi = 0;
  for (const auto& r : rs) hi = r.threshold < 3.0 ? std::max(hi, r.error_percent) : hi;
  return hi;
}
double error_drops(const Records& rs, const Dev&) {
  int drops = 0;
  for (std::size_t i = 1; i < rs.size(); ++i) {
    drops += rs[i].error_percent < rs[i - 1].error_percent;
  }
  return drops;
}
double high_threshold_ratio(const Records& rs, const Dev&) {
  return median_ratio(rs, [](const RunRecord& r) { return r.threshold >= 1.5; });
}
double high_psize_ratio(const Records& rs, const Dev&) {
  return median_ratio(rs, [](const RunRecord& r) { return r.prediction_size >= 16; });
}
double warp_geomean(const Records& rs, const Dev&) {
  const auto ratios = warp_over_thread(rs);
  return ratios.empty() ? kNone : stats::geomean(ratios);
}
double warp_max(const Records& rs, const Dev&) {
  const auto ratios = warp_over_thread(rs);
  return ratios.empty() ? kNone : *std::max_element(ratios.begin(), ratios.end());
}
double convergence_r2(const Records& rs, const Dev&) {
  return convergence_correlation(of(rs, kTaf)).regression.r2;
}
double table2_configs(const Records&, const Dev&) {
  return static_cast<double>(full_config_count(32) + full_config_count(64));
}
// Per iACT configuration, CLOCK's speedup over round-robin's; the ratio
// farthest from 1.
double clock_over_rr(const Records& rs, const Dev&) {
  std::map<std::pair<int, double>, std::array<double, 2>> pairs;
  for (const auto& r : rs) {
    if (!r.feasible) return kNone;
    const bool clock = r.spec_text.find("replacement(clock)") != std::string::npos;
    pairs[{r.table_size, r.threshold}][clock] = r.speedup;
  }
  double farthest = 1;
  for (const auto& [config, speedup] : pairs) {
    const double ratio = speedup[1] / speedup[0];
    if (!(std::fabs(ratio - 1) <= std::fabs(farthest - 1))) farthest = ratio;
  }
  return farthest;
}
// §3.1.2: divergent warp-regions of TAF memo(out:3:16:0.05) at `level` on a
// region whose lanes disagree about stability. 60% of items are constant,
// 40% oscillate; under grid-stride mapping every warp mixes both kinds.
double divergent_regions(const Dev& device, HierarchyLevel level) {
  constexpr std::uint64_t n = 1u << 16;
  approx::RegionBinding binding;
  binding.out_dims = 1;
  apps::bind_accurate(binding, [](std::uint64_t i, double* out) {
    out[0] = i % 5 < 3 ? 42.0 : 40.0 + 4.0 * std::sin(static_cast<double>(i));
  });
  apps::bind_constant_cost(binding, 300.0);
  apps::bind_commit(binding, [](std::uint64_t, const double*) {});
  ApproxSpec spec = pragma::parse_approx("memo(out:3:16:0.05) out(out[i])");
  spec.level = level;
  const auto report = approx::RegionExecutor(device).run(
      spec, binding, n, sim::launch_for_items_per_thread(n, 64, 128));
  return static_cast<double>(report.timing.divergent_regions);
}
double thread_divergence(const Records&, const Dev& d) {
  return divergent_regions(d, HierarchyLevel::kThread);
}
double majority_divergence(const Records&, const Dev& d) {
  return std::max(divergent_regions(d, HierarchyLevel::kWarp),
                  divergent_regions(d, HierarchyLevel::kBlock));
}

// --- Claims ---------------------------------------------------------------------

enum class Rel { kNear, kAtLeast, kAtMost, kAbove, kBelow, kEqual };
constexpr double kNearTolerance = 0.25;  // kNear: within 25 % of the paper's value

struct Claim {
  const char* id;
  const char* figure;  ///< stem of the sweep whose records it reads; "" for none
  const char* device;  ///< a preset, "each" figure device, or "v100+mi250x" pooled
  const char* statistic;
  double (*stat)(const Records& records, const Dev& device);
  double paper;  ///< the paper's value; NaN when it states only a relation
  Rel rel;
  double bound;  ///< what `rel` compares against (the paper's value for kNear)
  const char* diagnosis;
};

// Every claim of the paper's Figures 3 and 6-12, Table 2, §3.1.2 and
// footnote 3 that the simulator can test. Paper values are measured on a
// real V100 and MI250X; the devices here are the simulated presets.
const std::vector<Claim> kClaims = {
    {"fig03.fill", "", "v100", "log2 threads whose 5x36 B tables fill global memory",
     fill_log2, 27, Rel::kAtMost, 27, ""},
    {"fig03.reduction", "", "each", "2^27 per-thread tables / resident-thread AC state",
     state_reduction, kNone, Rel::kAbove, 1000, ""},
    {"fig06.taf_best", "fig06", "each", "share of apps whose best (<10% err) is TAF",
     taf_best_share, kNone, Rel::kAtLeast, 0.5,
     "perforation beats TAF on lulesh, leukocyte and lavamd; no kmeans TAF config is <10% MCR"},
    {"fig06.iact_worst", "fig06", "each", "share of apps whose slowest best (<10%) is iACT",
     iact_worst_share, kNone, Rel::kAtLeast, 0.5, ""},
    {"fig06.minife_excluded", "fig06", "each", "MiniFE configs approximating at <10% error",
     minife_qualifying, 0, Rel::kEqual, 0,
     "memo(out:1:64:1.5), ipt 64: 98% of SpMV rows stale, yet CG converges (0.33% error)"},
    {"fig06.max", "fig06", "v100+mi250x", "max best speedup (<10% err)", max_best, 6.9, Rel::kNear,
     6.9, "binomial TAF skips 97% of pricings on both presets: 11.1x on v100, only 2.3x on mi250x"},
    {"fig06.geomean", "fig06", "v100+mi250x", "geomean of best per app x technique x device",
     geomean_of_bests, 1.42, Rel::kNear, 1.42, ""},
    {"fig07.perfo_nv", "fig07_lulesh", "v100", "best perforation speedup (<7% err)", best_perfo_7,
     1.64, Rel::kNear, 1.64, ""},
    {"fig07.perfo_amd", "fig07_lulesh", "mi250x", "best perforation speedup (<7% err)",
     best_perfo_7, 1.67, Rel::kNear, 1.67,
     "LULESH above ipt 1 loses ~20% vs v100 on mi250x: perfo(large:16), ipt 8 is 1.01x"},
    {"fig07.fini_vs_ini", "fig07_lulesh", "each", "mean MAPE of fini / ini perforation (ipt 1)",
     fini_over_ini, kNone, Rel::kBelow, 1, ""},
    {"fig07.taf_nv", "fig07_lulesh", "v100", "best TAF speedup (<10% err)", best_taf, 1.30,
     Rel::kNear, 1.30, ""},
    {"fig07.taf_amd", "fig07_lulesh", "mi250x", "best TAF speedup (<10% err)", best_taf, 1.45,
     Rel::kNear, 1.45, "see fig07.perfo_amd: memo(out:1:64:1.5) at ipt 8 gives 1.00x vs 1.18x"},
    {"fig07.iact_nv", "fig07_lulesh", "v100", "best iACT speedup (<10% err)", best_iact, 1.07,
     Rel::kNear, 1.07, ""},
    {"fig07.iact_amd", "fig07_lulesh", "mi250x", "best iACT speedup (<10% err)", best_iact, 1.15,
     Rel::kNear, 1.15, "see fig07.perfo_amd: iACT's best is 0.77x vs 0.94x on v100"},
    {"fig07.iact_error", "fig07_lulesh", "each", "mean error of iACT / TAF configs",
     iact_over_taf_error, 0.3 / 0.67, Rel::kBelow, 1,
     "modeled LULESH TAF is nearly exact (mean 0.11% error); iACT averages 17.5%"},
    {"fig08.taf_nv", "fig08ab_binomial", "v100", "best block-level TAF speedup (<10% err)",
     best_taf, 6.90, Rel::kNear, 6.90,
     "see fig06.max: the same block-level TAF gives 11.1x on v100, 2.3x on mi250x"},
    {"fig08.iact_nv", "fig08ab_binomial", "v100", "best block-level iACT speedup (<10% err)",
     best_iact, 5.64, Rel::kNear, 5.64,
     "iACT matches TAF (11.0x vs 11.1x): its lookups cost little next to a lattice pricing"},
    {"fig08c.rise", "fig08c_binomial", "each", "items per thread at the speedup peak", peak_ipt,
     kNone, Rel::kAbove, 1,
     "on mi250x every ipt above 1 runs at <= 0.84x though 25-95% of options are approximated"},
    {"fig08c.decline", "fig08c_binomial", "each", "speedup at the largest ipt / at the peak",
     last_over_peak, kNone, Rel::kBelow, 1, ""},
    {"fig08c.amd_earlier", "fig08c_binomial", "v100+mi250x", "peak ipt on mi250x / on v100",
     amd_over_nv_peak, kNone, Rel::kBelow, 1, ""},
    {"fig09.leukocyte_taf", "fig09ab_leukocyte", "v100+mi250x", "best TAF speedup (<10% err)",
     best_taf, 1.99, Rel::kNear, 1.99, ""},
    {"fig09.leukocyte_iact_slow", "fig09ab_leukocyte", "each", "max iACT speedup (any error)",
     max_iact, kNone, Rel::kBelow, 1, ""},
    {"fig09.leukocyte_iact_error", "fig09ab_leukocyte", "each", "mean error of iACT / TAF configs",
     iact_over_taf_error, kNone, Rel::kBelow, 1, ""},
    {"fig09.minife_error", "fig09c_minife", "each", "min error of approximating TAF configs",
     min_approx_taf_error, 593, Rel::kAtLeast, 593,
     "see fig06.minife_excluded: 0.33% at ipt 64, 1136% at ipt 8"},
    {"fig09.minife_iact", "fig09c_minife", "each", "feasible MiniFE iACT configs", feasible_iact, 0,
     Rel::kEqual, 0, ""},
    {"fig10.taf_amd", "fig10ab_blackscholes", "mi250x", "best TAF speedup (<10% err)", best_taf,
     2.26, Rel::kNear, 2.26,
     "ipt 8 divides the synthetic inputs' period: TAF predicts 87.5% of prices exactly"},
    {"fig10.taf_psize", "fig10ab_blackscholes", "mi250x", "pSize of the best TAF config",
     best_taf_psize, kNone, Rel::kAtLeast, 32, ""},
    {"fig10.taf_threshold", "fig10ab_blackscholes", "mi250x", "threshold of the best TAF config",
     best_taf_threshold, kNone, Rel::kAtLeast, 1.5, ""},
    {"fig10.iact_slow", "fig10ab_blackscholes", "each", "max iACT speedup (any error)", max_iact,
     kNone, Rel::kBelow, 1, ""},
    {"fig10c.low_threshold", "fig10c", "each", "max MAPE at T < 3 (hSize 5, pSize 512)",
     max_error_below_t3, kNone, Rel::kAbove, kMaxError, ""},
    {"fig10c.unintuitive", "fig10c", "each", "threshold steps up that lower MAPE", error_drops,
     kNone, Rel::kAtLeast, 1, ""},
    {"fig11.taf_amd", "fig11_lavamd", "mi250x", "best TAF speedup (<10% err)", best_taf, 2.98,
     Rel::kNear, 2.98,
     "TAF passes 1x only past 10% error (1.33x at 35%); under it T=0.3 gives 0.83x"},
    {"fig11.taf_threshold", "fig11_lavamd", "each", "median TAF speedup at T >= 1.5 / below",
     high_threshold_ratio, kNone, Rel::kAbove, 1, ""},
    {"fig11.taf_psize", "fig11_lavamd", "each", "median TAF speedup at pSize >= 16 / below",
     high_psize_ratio, kNone, Rel::kAbove, 1, ""},
    {"fig11.iact_slow", "fig11_lavamd", "each", "max iACT speedup (any error)", max_iact, kNone,
     Rel::kBelow, 1,
     "iACT passes 1x only at threshold 5 (36% error); under 10% error it is <= 0.81x"},
    {"fig11.iact_error", "fig11_lavamd", "each", "mean error of iACT / TAF configs",
     iact_over_taf_error, kNone, Rel::kBelow, 1, ""},
    {"fig11c.warp_raises", "fig11_lavamd", "each", "geomean over T of warp / thread median",
     warp_geomean, kNone, Rel::kAbove, 1, ""},
    {"fig11c.warp_max", "fig11_lavamd", "each", "max over T of warp / thread median", warp_max,
     2.27, Rel::kNear, 2.27,
     "warp lifts the median 1.6x at T <= 1.2; at T >= 1.5 both levels approximate alike"},
    {"fig12.max", "fig12_kmeans", "v100+mi250x", "max speedup (any MCR)", max_any, 4, Rel::kNear, 4,
     "TAF hSize 2 stops k-means at 4 of 60 iterations: 11-12x at 61% MCR, <1x under 10%"},
    {"fig12c.r2", "fig12_kmeans", "each", "R^2 of TAF time vs convergence speedup", convergence_r2,
     0.95, Rel::kNear, 0.95, ""},
    {"table2.configs", "", "v100+mi250x", "Table 2 grid, one benchmark, both platforms",
     table2_configs, 57288, Rel::kNear, 57288,
     "the Table 2 cross product is 7,042 + 7,490; the paper's count is 3.9x that, unexplained"},
    {"fn3.clock_no_effect", "fn3_replacement", "each",
     "CLOCK / round-robin iACT speedup farthest from 1", clock_over_rr, 1, Rel::kNear, 1, ""},
    {"s312.thread_diverges", "", "each", "divergent warp-regions, thread-level TAF, mixed lanes",
     thread_divergence, kNone, Rel::kAbove, 0, ""},
    {"s312.majority_uniform", "", "each", "divergent warp-regions, warp/block-level (the larger)",
     majority_divergence, 0, Rel::kEqual, 0, ""},
};

bool holds(Rel rel, double value, double bound) {
  switch (rel) {
    case Rel::kNear: return std::fabs(value / bound - 1.0) <= kNearTolerance;
    case Rel::kAtLeast: return value >= bound;
    case Rel::kAtMost: return value <= bound;
    case Rel::kAbove: return value > bound;
    case Rel::kBelow: return value < bound;
    case Rel::kEqual: return value == bound;
  }
  return false;
}

std::string relation_text(const Claim& c) {
  static const char* const kOps[] = {"~", ">=", "<=", ">", "<", "=="};
  return strings::format("%s %.4g", kOps[static_cast<int>(c.rel)], c.bound);
}
std::string value_text(double v, const char* missing) {
  return std::isfinite(v) ? strings::format("%.4g", v) : missing;
}

struct Row {
  const Claim* claim;
  std::string device;
  double modeled;
  bool ok;
};

// One row per device selection the run covers: "each" expands to every
// device the figure ran on; a named or pooled selection needs all of its
// devices to have run.
std::vector<Row> score(const std::map<std::pair<std::string, std::string>, Records>& data,
                       const std::vector<Dev>& devices) {
  std::vector<Row> rows;
  for (const Claim& c : kClaims) {
    const bool each = std::string(c.device) == "each";
    std::vector<std::vector<std::string>> selections;
    for (const auto& d : devices) {
      if (each) selections.push_back({d.name});
    }
    if (!each) selections.push_back(strings::split(c.device, '+'));
    for (const auto& names : selections) {
      Records rs;
      bool present = true;
      for (const auto& name : names) {
        const auto it = data.find({c.figure, name});
        if (it != data.end()) rs.insert(rs.end(), it->second.begin(), it->second.end());
        present = present && (it != data.end() || !*c.figure);
      }
      if (!present) continue;
      const double modeled = c.stat(rs, sim::device_by_name(names.front()));
      rows.push_back(
          {&c, each ? names.front() : c.device, modeled, holds(c.rel, modeled, c.bound)});
    }
  }
  return rows;
}

void write_record(const std::vector<Row>& rows, const Options& opts) {
  const std::string path = opts.out_dir + "/BENCH_repro.json";
  std::ofstream out(path);
  const char* density = opts.curated_only ? "curated"
                        : opts.density == SweepDensity::kFull ? "full" : "quick";
  out << "{\n  \"bench\": \"hpac_repro\",\n  \"density\": \"" << density << "\",\n"
      << "  \"devices\": [";
  for (std::size_t i = 0; i < opts.devices.size(); ++i) {
    out << (i ? ", \"" : "\"") << opts.devices[i].name << '"';
  }
  out << "],\n  \"claims\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << strings::format(
        "    {\"id\": \"%s\", \"device\": \"%s\", \"modeled\": %s, \"paper\": %s, "
        "\"relation\": \"%s\", \"holds\": %s}%s\n",
        r.claim->id, r.device.c_str(), value_text(r.modeled, "null").c_str(),
        value_text(r.claim->paper, "null").c_str(), relation_text(*r.claim).c_str(),
        r.ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("[wrote %zu claims to %s]\n", rows.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  std::map<std::pair<std::string, std::string>, Records> data;  // (figure, device) -> records

  print_fig03(opts.devices);
  print_table2(opts.devices);
  for (const Sweep& sweep : kSweeps) {
    std::printf("=== %s ===\n\n", sweep.title);
    std::vector<Records> per_device;
    for (const auto& device : opts.devices) {
      per_device.push_back(run_sweep(sweep, opts, device));
      data[{sweep.stem, device.name}] = per_device.back();
    }
    print_best_table(sweep, per_device);
    if (sweep.detail) sweep.detail(per_device);
  }
  // Panel (c) runs on the last device: mi250x, the paper's platform for it,
  // when both presets are swept.
  data[{"fig10c", opts.devices.back().name}] = run_fig10c(opts.devices.back());

  const std::vector<Row> rows = score(data, opts.devices);
  TextTable card({"claim", "device", "statistic", "modeled", "paper", "must", "verdict"});
  const auto failing = std::count_if(rows.begin(), rows.end(), [](const Row& r) { return !r.ok; });
  for (const Row& r : rows) {
    card.add_row({r.claim->id, r.device, r.claim->statistic, value_text(r.modeled, "-"),
                  value_text(r.claim->paper, "-"), relation_text(*r.claim),
                  r.ok ? "HOLDS" : "FAILS"});
  }
  std::printf("=== Scorecard: %zu claims, %zu hold, %zu fail (~ means within %.0f%%) ===\n\n%s\n",
              rows.size(), rows.size() - failing, static_cast<std::size_t>(failing),
              100 * kNearTolerance, card.render().c_str());
  for (const Row& r : rows) {
    if (!r.ok) {
      std::printf("FAILS %s (%s): %s\n", r.claim->id, r.device.c_str(), r.claim->diagnosis);
    }
  }
  std::printf("\n");
  write_record(rows, opts);
  return 0;
}
