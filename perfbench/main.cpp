// perfbench — the repository benchmark driver.
//
//   perfbench --workload=explore_suite|campaign_fleet|hpacd_mix --seed=N
//             --seconds=S --trace=0|1 --work-dir=D --cache-dir=C
//             --reference=FILE --hpacd=PATH [--doc=FILE] [--capture]
//
// --trace=0 measures the workload's end-to-end metrics with tracing off.
// --trace=1 first repeats that untraced measurement (the base of the
// tracing-overhead number), then runs every workload and the engine-call
// scenarios with spans on and reports the per-layer metrics. The last line
// of stdout is the result object; --doc also writes the full result
// (environment, modeled device time, failures, span shares) as JSON.
// --capture records reference digests into --reference instead of
// checking against it. Run through perfbench/run.py, which builds first.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/simd.hpp"
#include "support.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

const char* const kWorkloads[] = {"explore_suite", "campaign_fleet", "hpacd_mix"};

E2e run_workload(Context& ctx, const std::string& workload, bool traced) {
  if (workload == "explore_suite") return run_explore(ctx, traced);
  if (workload == "campaign_fleet") return run_campaign(ctx, traced);
  return run_hpacd_mix(ctx, traced);
}

std::string environment_json() {
  const hpac::simd::DispatchInfo simd = hpac::simd::dispatch_info();
  const char* simd_env = std::getenv("HPAC_SIMD");
  return JsonObject()
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("simd_active", hpac::simd::level_name(simd.active))
      .str("simd_max_runtime", hpac::simd::level_name(simd.max_runtime))
      .str("simd_max_compiled", hpac::simd::level_name(simd.max_compiled))
      .str("HPAC_SIMD", simd_env != nullptr ? simd_env : "")
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .raw("settings", JsonObject()
                           .num("explore_sweep_threads", 1)
                           .num("campaign_threads", 1)
                           .num("fleet_workers", 2)
                           .num("fleet_worker_threads", 1)
                           .num("hpacd_threads", 1)
                           .num("hpacd_clients", 3)
                           .text())
      .text();
}

/// The gated metrics, one meaning per workload (see README.md), and the
/// workload's own numbers under their descriptive names for the full result.
void set_e2e(Context& ctx, const E2e& r, Metrics& named) {
  ctx.e2e.set("ops_per_s", r.ops_per_s, "1/s");
  ctx.e2e.set("job_wall_s", r.job_wall_s, "s");
  ctx.e2e.set("setup_s", median(r.setup_s), "s");

  const auto ms = [](const std::vector<double>& v, double q) { return quantile(v, q) * 1e3; };
  const auto count = [](const std::vector<double>& v) { return static_cast<double>(v.size()); };
  if (ctx.workload == "explore_suite") {
    named.set("explore_configs_per_s", r.ops_per_s, "1/s");
    named.set("explore_suite_wall_s", r.job_wall_s, "s");
    named.set("explore_config_p50_ms", ms(r.op_latency_s, 0.50), "ms");
    named.set("explore_config_p99_ms", ms(r.op_latency_s, 0.99), "ms");
    named.set("explore_configs", count(r.op_latency_s), "count");
  } else if (ctx.workload == "campaign_fleet") {
    named.set("campaign_tuples_per_s", r.ops_per_s, "1/s");
    named.set("fleet_wall_s", r.job_wall_s, "s");
    named.set("campaign_tuple_p50_ms", ms(r.op_latency_s, 0.50), "ms");
    named.set("campaign_tuple_p99_ms", ms(r.op_latency_s, 0.99), "ms");
    named.set("campaign_tuples", count(r.op_latency_s), "count");
  } else {
    named.set("hpacd_memo_qps", r.ops_per_s, "1/s");
    named.set("hpacd_cold_batch_wall_s", r.job_wall_s, "s");
    named.set("hpacd_memo_p50_us", ms(r.op_latency_s, 0.50) * 1e3, "us");
    named.set("hpacd_memo_p99_us", ms(r.op_latency_s, 0.99) * 1e3, "us");
    named.set("hpacd_memo_samples", count(r.op_latency_s), "count");
    named.set("hpacd_cold_p50_ms", ms(r.cold_latency_s, 0.50), "ms");
    named.set("hpacd_cold_p90_ms", ms(r.cold_latency_s, 0.90), "ms");
    named.set("hpacd_cold_samples", count(r.cold_latency_s), "count");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=explore_suite|campaign_fleet|hpacd_mix --seed=N\n"
               "                 --seconds=S --trace=0|1 --work-dir=D --cache-dir=C\n"
               "                 --reference=FILE --hpacd=PATH [--doc=FILE] [--capture]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--fleet-worker") {
    return fleet_worker_main(argv[2], argv[3]);
  }
  Context ctx;
  std::string reference_path, doc_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") ctx.workload = value;
    else if (key == "--seed") ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") ctx.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") ctx.trace = value == "1";
    else if (key == "--work-dir") ctx.work_dir = value;
    else if (key == "--cache-dir") ctx.cache_dir = value;
    else if (key == "--reference") reference_path = value;
    else if (key == "--hpacd") ctx.hpacd_path = value;
    else if (key == "--doc") doc_path = value;
    else if (key == "--capture") ctx.capture = true;
    else return usage();
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || ctx.workload == w;
  if (!known || ctx.seconds <= 0 || ctx.work_dir.empty() || ctx.cache_dir.empty() ||
      reference_path.empty() || ctx.hpacd_path.empty()) {
    return usage();
  }
  if (!ctx.capture && !ctx.reference.load(reference_path)) {
    std::fprintf(stderr, "perfbench: cannot read reference digests %s\n", reference_path.c_str());
    return 1;
  }
  ctx.self_path = fs::canonical("/proc/self/exe").string();
  fs::create_directories(ctx.work_dir);
  fs::create_directories(ctx.cache_dir);

  JsonObject trace_doc;
  Metrics named;
  try {
    if (!ctx.trace) {
      set_e2e(ctx, run_workload(ctx, ctx.workload, false), named);
    } else {
      const E2e plain = run_workload(ctx, ctx.workload, false);
      set_tracing(true);
      double traced_ops_per_s = 0;
      for (const char* workload : kWorkloads) {
        set_scenario(workload);
        const auto start = Clock::now();
        const E2e traced = run_workload(ctx, workload, true);
        if (ctx.workload == workload) traced_ops_per_s = traced.ops_per_s;
        std::fprintf(stderr, "perfbench: %s traced in %.1f s\n", workload, since(start));
      }
      set_scenario("engine_calls");
      const auto start = Clock::now();
      run_engine_layers(ctx);
      std::fprintf(stderr, "perfbench: engine calls traced in %.1f s\n", since(start));
      set_tracing(false);

      const std::vector<SpanRecord> spans = collected_spans();
      write_spans(spans, ctx.work_dir + "/spans.jsonl");
      ctx.layer.set("trace.spans", static_cast<double>(spans.size()), "count");

      // The cost of one recorded span, measured after the spans above were
      // collected so these calibration spans are never written.
      constexpr int kCalibrationSpans = 200000;
      set_tracing(true);
      set_scenario("calibration");
      const auto calibration_start = Clock::now();
      for (int i = 0; i < kCalibrationSpans; ++i) Span span("trace.calibration", "trace");
      ctx.layer.set("trace.span_ns", since(calibration_start) * 1e9 / kCalibrationSpans, "ns");
      set_tracing(false);
      ctx.layer.set("trace.overhead_frac", plain.ops_per_s / traced_ops_per_s - 1, "fraction");
      ctx.layer.set("trace.overhead_us_per_op",
                    (1 / traced_ops_per_s - 1 / plain.ops_per_s) * 1e6, "us");
      for (const char* scenario :
           {"explore_suite", "campaign_fleet", "hpacd_mix", "engine_calls"}) {
        const auto layers = self_seconds_by_layer(spans, scenario);
        double total = 0;
        for (const auto& [layer, seconds] : layers) total += seconds;
        JsonObject shares;
        for (const auto& [layer, seconds] : layers) {
          shares.num(layer, seconds / total);
          ctx.layer.set(std::string("trace.share.") + scenario + "." + layer,
                        100 * seconds / total, "%");
        }
        trace_doc.raw(scenario, shares.text());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (ctx.capture) {
    if (ctx.checks.failed == 0 && ctx.reference.save(reference_path)) {
      std::fprintf(stderr, "perfbench: captured reference digests into %s\n",
                   reference_path.c_str());
      return 0;
    }
    return 1;
  }

  const Metrics& metrics = ctx.trace ? ctx.layer : ctx.e2e;
  const bool correct = ctx.checks.failed == 0 && ctx.checks.attempted > 0;
  std::string failures = "[";
  for (const auto& failure : ctx.checks.failures) {
    failures += (failures.size() > 1 ? ", " : "") + json_string(failure);
  }
  failures += "]";
  for (const auto& failure : ctx.checks.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  if (!doc_path.empty()) {
    std::ofstream doc(doc_path);
    doc << JsonObject()
               .str("workload", ctx.workload)
               .num("seed", static_cast<double>(ctx.seed))
               .num("trace", ctx.trace ? 1 : 0)
               .raw("environment", environment_json())
               .raw("modeled", ctx.modeled.text())
               .raw("metrics", metrics.json())
               .raw("workload_metrics", named.json())
               .raw("span_self_share", trace_doc.text())
               .num("attempted", static_cast<double>(ctx.checks.attempted))
               .num("failed", static_cast<double>(ctx.checks.failed))
               .num("failed_frac", ctx.checks.attempted > 0
                                       ? static_cast<double>(ctx.checks.failed) /
                                             static_cast<double>(ctx.checks.attempted)
                                       : 1.0)
               .raw("failures", failures)
               .text()
        << '\n';
  }
  std::printf("%s\n", JsonObject()
                          .raw("correct", correct ? "true" : "false")
                          .num("attempted", static_cast<double>(ctx.checks.attempted))
                          .num("failed", static_cast<double>(ctx.checks.failed))
                          .raw("metrics", metrics.json())
                          .text()
                          .c_str());
  return 0;
}
