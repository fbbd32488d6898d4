// explore_suite: Explorer::sweep over all seven registry apps x {curated
// TAF, iACT, perforation} x each app's memo_items_axis on v100 — the 21
// CLI sweeps. The evaluation core (apps, approx, sim, offload) end to end;
// no store, socket or lease is touched.

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "sim/device.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using namespace hpac;

/// What the timing decorator learns from each Benchmark::run.
struct RunLog {
  struct Entry {
    std::string app;
    pragma::Technique technique = pragma::Technique::kNone;
    double seconds = 0;
    approx::ExecStats stats;
    offload::Timeline timeline;
  };
  std::mutex mutex;
  std::vector<Entry> entries;

  void add(const std::string& app, pragma::Technique technique, double seconds,
           const harness::RunOutput& output) {
    Entry entry{app, technique, seconds, {}, output.timeline};
    entry.stats.region_invocations = output.stats.region_invocations;
    entry.stats.approx_items = output.stats.approx_items;
    entry.stats.skipped_items = output.stats.skipped_items;
    entry.stats.iact_hits = output.stats.iact_hits;
    entry.stats.forced_approx = output.stats.forced_approx;
    entry.stats.forced_accurate = output.stats.forced_accurate;
    entry.stats.taf_stable_entries = output.stats.taf_stable_entries;
    std::lock_guard<std::mutex> lock(mutex);
    entries.push_back(std::move(entry));
  }
};

/// Decorator around harness::Benchmark that times every run (and every
/// fork's runs) into a RunLog and records an "apps.run" span.
class TimedBenchmark final : public harness::Benchmark {
 public:
  TimedBenchmark(std::unique_ptr<harness::Benchmark> inner, RunLog& log)
      : inner_(std::move(inner)), log_(log), name_(inner_->name()) {}

  std::string name() const override { return name_; }
  harness::ErrorMetric error_metric() const override { return inner_->error_metric(); }
  harness::TimingScope timing_scope() const override { return inner_->timing_scope(); }
  std::uint64_t default_items_per_thread() const override {
    return inner_->default_items_per_thread();
  }
  std::uint32_t threads_per_team() const override { return inner_->threads_per_team(); }
  std::vector<std::uint64_t> memo_items_axis() const override {
    return inner_->memo_items_axis();
  }

  harness::RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                         const sim::DeviceConfig& device) override {
    Span span("apps.run", "apps");
    const auto start = Clock::now();
    harness::RunOutput output = inner_->run(spec, items_per_thread, device);
    log_.add(name_, spec.technique, since(start), output);
    return output;
  }

  std::unique_ptr<harness::Benchmark> fork() const override {
    auto copy = inner_->fork();
    if (!copy) return nullptr;
    return std::make_unique<TimedBenchmark>(std::move(copy), log_);
  }

 private:
  std::unique_ptr<harness::Benchmark> inner_;
  RunLog& log_;
  std::string name_;
};

const char* const kTechniques[] = {"taf", "iact", "perfo"};

std::vector<pragma::ApproxSpec> curated(const std::string& technique,
                                        const sim::DeviceConfig& device) {
  if (technique == "taf") return harness::curated_taf_specs(harness::table2::hierarchies());
  if (technique == "iact") {
    return harness::curated_iact_specs(device.warp_size, harness::table2::hierarchies());
  }
  return harness::curated_perfo_specs();
}

struct Suite {
  std::vector<std::unique_ptr<TimedBenchmark>> apps;
  std::map<std::string, std::vector<pragma::ApproxSpec>> specs;  ///< per technique
};

Suite make_suite(RunLog& log, const sim::DeviceConfig& device) {
  Suite suite;
  for (const auto& name : apps::benchmark_names()) {
    suite.apps.push_back(std::make_unique<TimedBenchmark>(apps::make_benchmark(name), log));
  }
  for (const char* technique : kTechniques) suite.specs[technique] = curated(technique, device);
  return suite;
}

struct PassResult {
  double wall_s = 0;
  double baseline_s = 0;
  std::size_t configs = 0;
};

/// One pass over the 21 sweeps in `order` (app index, technique index),
/// each on a fresh Explorer as the CLI runs it; checks every sweep's CSV.
PassResult run_pass(Context& ctx, Suite& suite, const std::vector<std::pair<int, int>>& order,
                    std::size_t num_threads) {
  const sim::DeviceConfig device = sim::v100();
  PassResult pass;
  for (const auto& [app_index, technique_index] : order) {
    TimedBenchmark& app = *suite.apps[static_cast<std::size_t>(app_index)];
    const std::string technique = kTechniques[technique_index];
    harness::Explorer explorer(app, device);
    const auto start = Clock::now();
    {
      Span sweep("harness.explorer.sweep", "harness");
      {
        Span baseline("harness.explorer.baseline", "harness");
        const auto baseline_start = Clock::now();
        explorer.baseline();
        pass.baseline_s += since(baseline_start);
      }
      explorer.sweep(suite.specs[technique], app.memo_items_axis(), num_threads);
    }
    pass.wall_s += since(start);
    pass.configs += explorer.db().size();
    ctx.check_digest("explore." + app.name() + "." + technique,
                     digest(csv_text(explorer.db())), explorer.db().size());
  }
  return pass;
}

std::vector<std::pair<int, int>> seeded_order(std::uint64_t seed, std::size_t app_count) {
  std::vector<std::pair<int, int>> order;
  for (std::size_t a = 0; a < app_count; ++a) {
    for (int t = 0; t < 3; ++t) order.emplace_back(static_cast<int>(a), t);
  }
  Xoshiro256 rng(seed ^ 0xe7b1u);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  return order;
}

}  // namespace

E2e run_explore(Context& ctx, bool traced) {
  E2e out;
  RunLog log;
  const sim::DeviceConfig device = sim::v100();

  // Set-up: constructing the seven apps (their synthetic workloads) and
  // the curated spec lists. Timed before and after the measured section, so
  // a burst of load from other tenants moves at most half the samples.
  const auto set_up = [&log, &device, &out] {
    const auto start = Clock::now();
    auto suite = std::make_unique<Suite>(make_suite(log, device));
    out.setup_s.push_back(since(start));
    return suite;
  };
  std::unique_ptr<Suite> suite;
  for (int i = 0; i < 5; ++i) suite = set_up();
  const auto order = seeded_order(ctx.seed, suite->apps.size());

  // Measured section: whole passes while another one fits the budget.
  const auto run_start = Clock::now();
  std::vector<double> pass_walls;
  std::size_t configs = 0;
  double baseline_s = 0;
  do {
    const PassResult pass = run_pass(ctx, *suite, order, /*num_threads=*/1);
    pass_walls.push_back(pass.wall_s);
    configs += pass.configs;
    baseline_s += pass.baseline_s;
  } while (!traced && since(run_start) + pass_walls.back() < ctx.seconds);
  for (int i = 0; i < 4; ++i) set_up();

  double sweep_wall = 0;
  for (const double wall : pass_walls) sweep_wall += wall;
  out.ops_per_s = static_cast<double>(configs) / sweep_wall;
  out.job_wall_s = median(pass_walls);

  // Per-config latency: every non-baseline Benchmark::run.
  std::map<std::string, double> by_technique, by_app;
  approx::ExecStats totals;
  offload::Timeline timeline;
  double run_s = 0;
  for (const auto& entry : log.entries) {
    timeline += entry.timeline;
    if (entry.technique == pragma::Technique::kNone) continue;
    out.op_latency_s.push_back(entry.seconds);
    run_s += entry.seconds;
    by_app[entry.app] += entry.seconds;
    const char* technique = entry.technique == pragma::Technique::kTafMemo    ? "taf"
                            : entry.technique == pragma::Technique::kIactMemo ? "iact"
                                                                              : "perfo";
    by_technique[technique] += entry.seconds;
    totals.region_invocations += entry.stats.region_invocations;
    totals.approx_items += entry.stats.approx_items;
    totals.skipped_items += entry.stats.skipped_items;
    totals.iact_hits += entry.stats.iact_hits;
    totals.forced_approx += entry.stats.forced_approx;
    totals.forced_accurate += entry.stats.forced_accurate;
    totals.taf_stable_entries += entry.stats.taf_stable_entries;
  }

  ctx.modeled.raw("explore_suite_timeline_s", JsonObject()
                                                  .num("htod", timeline.htod_seconds)
                                                  .num("dtoh", timeline.dtoh_seconds)
                                                  .num("kernel", timeline.kernel_seconds)
                                                  .num("host", timeline.host_seconds)
                                                  .text());
  if (!traced) return out;

  ctx.layer.set("harness.explorer.baseline_s", baseline_s, "s");
  for (const char* technique : kTechniques) {
    ctx.layer.set(std::string("apps.run_s.") + technique, by_technique[technique], "s");
  }
  for (const auto& app : suite->apps) {
    ctx.layer.set("apps.run_s." + app->name(), by_app[app->name()], "s");
  }
  ctx.layer.set("harness.explorer.self_s", sweep_wall - baseline_s - run_s, "s");
  ctx.layer.set("approx.region_invocations", static_cast<double>(totals.region_invocations),
                "count");
  ctx.layer.set("approx.approx_items", static_cast<double>(totals.approx_items), "count");
  ctx.layer.set("approx.skipped_items", static_cast<double>(totals.skipped_items), "count");
  ctx.layer.set("approx.iact_hits", static_cast<double>(totals.iact_hits), "count");
  ctx.layer.set("approx.forced_approx", static_cast<double>(totals.forced_approx), "count");
  ctx.layer.set("approx.forced_accurate", static_cast<double>(totals.forced_accurate),
                "count");
  ctx.layer.set("approx.taf_stable_entries", static_cast<double>(totals.taf_stable_entries),
                "count");

  // The same suite with nproc sweep workers; the serial pass is the base.
  const std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  PassResult parallel;
  {
    Span span("common.scheduler.parallel_sweep", "common");
    parallel = run_pass(ctx, *suite, order, workers);
  }
  ctx.layer.set("common.scheduler.sweep_speedup", pass_walls.front() / parallel.wall_s,
                "x");
  return out;
}

}  // namespace perfbench
