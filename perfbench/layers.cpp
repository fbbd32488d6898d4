// Engine and layer calls timed in isolation: the batched synthetic region
// and iACT table scan carried over from bench/perf_regression (batched
// binding form only), the TAF window RSD, the kernel tracker, the pragma
// front end, lease-journal claim+release in both append modes, and a
// leukocyte curated-TAF sweep under report+differential audit with the
// extent-image cache on and off.

#include <filesystem>

#include "approx/iact.hpp"
#include "approx/region.hpp"
#include "approx/taf.hpp"
#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "harness/explorer.hpp"
#include "harness/lease_journal.hpp"
#include "harness/params.hpp"
#include "offload/device.hpp"
#include "offload/target.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"
#include "sim/timing.hpp"
#include "sim/warp.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using namespace hpac;
namespace fs = std::filesystem;

/// Results of timed loops land here so the loops cannot be optimized away.
volatile double g_sink = 0;

/// The synthetic region: out = a cheap function of the item index with a
/// long stable plateau (TAF-friendly) and inputs that repeat with a small
/// period (iACT-friendly), so the executor's own cost dominates.
double region_value(std::uint64_t i) {
  if (i % 97 < 60) return 42.0;
  return 1.0 + static_cast<double>(i % 7) * 0.25;
}

class EngineMicro final : public harness::Benchmark {
 public:
  static constexpr std::uint64_t kItems = 1u << 16;

  std::string name() const override { return "engine_micro"; }
  std::uint64_t default_items_per_thread() const override { return 8; }

  harness::RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                         const sim::DeviceConfig& device) override {
    offload::Device dev(device);
    approx::RegionExecutor executor(device);
    std::vector<double> out_values(kItems, 0.0);
    harness::RunOutput output;
    offload::MapScope map_in(dev, kItems * 2 * sizeof(double), offload::MapDir::kTo);
    offload::MapScope map_out(dev, kItems * sizeof(double), offload::MapDir::kFrom);

    approx::RegionBinding binding;
    binding.in_dims = 2;
    binding.out_dims = 1;
    binding.in_bytes = 2 * sizeof(double);
    binding.out_bytes = sizeof(double);
    binding.gather_batch = [](std::uint64_t first, sim::LaneMask lanes, std::span<double> in) {
      sim::for_each_lane(lanes, [&](int lane) {
        const std::uint64_t i = first + static_cast<std::uint64_t>(lane);
        in[static_cast<std::size_t>(lane) * 2 + 0] = static_cast<double>(i % 13);
        in[static_cast<std::size_t>(lane) * 2 + 1] = static_cast<double>((i / 13) % 7);
      });
    };
    binding.accurate_batch = [](std::uint64_t first, sim::LaneMask lanes,
                                std::span<const double>, std::span<double> out) {
      sim::for_each_lane(lanes, [&](int lane) {
        out[static_cast<std::size_t>(lane)] =
            region_value(first + static_cast<std::uint64_t>(lane));
      });
    };
    binding.accurate_cost_batch = [](std::uint64_t, sim::LaneMask) { return 64.0; };
    binding.commit_batch = [&out_values](std::uint64_t first, sim::LaneMask lanes,
                                         std::span<const double> out) {
      sim::for_each_lane(lanes, [&](int lane) {
        out_values[first + static_cast<std::uint64_t>(lane)] =
            out[static_cast<std::size_t>(lane)];
      });
    };
    binding.independent_items = true;

    const sim::LaunchConfig launch =
        sim::launch_for_items_per_thread(kItems, items_per_thread, threads_per_team());
    approx::RegionReport report;
    {
      Span span("offload.target_parallel_for", "offload");
      report = offload::target_parallel_for(dev, executor, spec, binding, kItems, launch);
    }
    output.stats = report.stats;
    output.timeline = dev.timeline();
    output.qoi = std::move(out_values);
    return output;
  }

  std::unique_ptr<harness::Benchmark> fork() const override {
    return std::make_unique<EngineMicro>(*this);
  }
};

/// Region items executed per second by a serial curated sweep of one
/// technique over the synthetic region (median of `repeats`).
double exec_items_per_s(Context& ctx, const std::string& technique, int repeats) {
  std::vector<pragma::ApproxSpec> specs;
  if (technique == "taf") {
    specs = harness::curated_taf_specs(harness::table2::hierarchies());
  } else if (technique == "iact") {
    specs = harness::curated_iact_specs(sim::v100().warp_size, harness::table2::hierarchies());
  } else {
    specs = harness::curated_perfo_specs();
  }
  std::vector<double> rates;
  std::string first_csv;
  for (int r = 0; r < repeats; ++r) {
    EngineMicro bench;
    harness::Explorer explorer(bench, sim::v100());
    explorer.baseline();
    const auto start = Clock::now();
    {
      Span span("approx.executor.sweep", "approx");
      explorer.sweep(specs, {8, 64}, /*num_threads=*/1);
    }
    const double wall = since(start);
    std::uint64_t items = 0;
    for (const auto& record : explorer.db().records()) {
      if (record.feasible) items += EngineMicro::kItems;
    }
    rates.push_back(static_cast<double>(items) / wall);
    const std::string csv = csv_text(explorer.db());
    if (r == 0) {
      first_csv = csv;
      ctx.check_digest("engine." + technique, digest(csv), explorer.db().size());
    } else {
      ctx.checks.op(csv == first_csv, "engine sweep not deterministic", explorer.db().size());
    }
  }
  return median(rates);
}

/// Nanoseconds per iACT find_nearest at one dispatch level; fills the
/// nearest-entry index of every probe into `indices`.
double find_nearest_ns(simd::Level level, std::vector<int>& indices) {
  constexpr int kTableSize = 64;
  constexpr int kInDims = 4;
  constexpr int kProbes = 1 << 18;
  Xoshiro256 rng(2023);
  std::vector<double> probes(static_cast<std::size_t>(kProbes) * kInDims);
  for (double& v : probes) v = rng.uniform(-4.0, 4.0);

  const simd::Level previous = simd::active_level();
  simd::set_level(level);
  std::vector<double> storage(approx::IactTable::storage_doubles(kTableSize, kInDims, 1), 0.0);
  approx::IactTable table(kTableSize, kInDims, 1, approx::Replacement::kRoundRobin, storage);
  Xoshiro256 fill_rng(7);
  std::vector<double> in(kInDims), out{0.0};
  for (int f = 0; f < kTableSize; ++f) {
    for (double& v : in) v = fill_rng.uniform(-4.0, 4.0);
    table.insert(in, out);
  }
  indices.clear();
  indices.reserve(kProbes);
  const auto start = Clock::now();
  {
    Span span("approx.iact.find_nearest", "approx");
    for (int p = 0; p < kProbes; ++p) {
      const std::span<const double> probe(probes.data() + static_cast<std::size_t>(p) * kInDims,
                                          kInDims);
      indices.push_back(table.find_nearest(probe).index);
    }
  }
  const double ns = since(start) * 1e9 / kProbes;
  simd::set_level(previous);
  return ns;
}

/// Nanoseconds per TafState::window_rsd on a full 5-deep window.
double window_rsd_ns() {
  constexpr int kCalls = 1 << 21;
  pragma::TafParams params{5, 8, 1e-12};
  std::vector<double> storage(approx::TafState::storage_doubles(params.history_size, 1), 0.0);
  approx::TafState state(params, 1, storage);
  Xoshiro256 rng(11);
  for (int i = 0; i < params.history_size; ++i) {
    const double v = rng.uniform(1.0, 2.0);
    state.record_accurate(std::span<const double>(&v, 1));
  }
  double sink = 0;
  const auto start = Clock::now();
  {
    Span span("approx.taf.window_rsd", "approx");
    for (int i = 0; i < kCalls; ++i) {
      if ((i & 63) == 0) {
        const double v = 1.0 + static_cast<double>(i & 1023) * 1e-3;
        state.record_accurate(std::span<const double>(&v, 1));
      }
      sink += state.window_rsd();
    }
  }
  g_sink = sink;
  return since(start) * 1e9 / kCalls;
}

/// Microseconds per KernelTracker::finalize on the synthetic region's launch.
double tracker_finalize_us() {
  constexpr int kCalls = 200;
  const sim::DeviceConfig device = sim::v100();
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(EngineMicro::kItems, 8, 128);
  sim::KernelTracker tracker(device, launch, 4096);
  const std::uint32_t warps =
      launch.threads_per_team / static_cast<std::uint32_t>(device.warp_size);
  for (std::uint64_t team = 0; team < launch.num_teams; ++team) {
    for (std::uint32_t w = 0; w < warps; ++w) {
      tracker.warp(team, w).charge_compute(64.0 + static_cast<double>((team + w) % 5));
    }
  }
  double sink = 0;
  const auto start = Clock::now();
  {
    Span span("sim.tracker.finalize", "sim");
    for (int i = 0; i < kCalls; ++i) sink += tracker.finalize().seconds;
  }
  g_sink = sink;
  return since(start) * 1e6 / kCalls;
}

/// Microseconds per parse_approx + to_string over the Table 2 quick grid.
double parse_us(Context& ctx) {
  std::vector<std::string> texts;
  for (const auto& spec : harness::taf_specs(harness::SweepDensity::kQuick)) {
    texts.push_back(spec.to_string());
  }
  for (const auto& spec : harness::iact_specs(harness::SweepDensity::kQuick, 64)) {
    texts.push_back(spec.to_string());
  }
  for (const auto& spec : harness::perfo_specs(harness::SweepDensity::kQuick)) {
    texts.push_back(spec.to_string());
  }
  constexpr int kRounds = 20;
  std::size_t mismatches = 0;
  const auto start = Clock::now();
  {
    Span span("pragma.parse_approx", "pragma");
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& text : texts) mismatches += pragma::parse_approx(text).to_string() != text;
    }
  }
  const double us = since(start) * 1e6 / static_cast<double>(kRounds * texts.size());
  ctx.checks.op(mismatches == 0, "parse_approx does not round-trip the Table 2 grid",
                texts.size());
  return us;
}

/// Microseconds per LeaseJournal claim+release pair in one append mode.
double claim_release_us(Context& ctx, harness::LeaseJournal::AppendMode mode, std::size_t tuples) {
  const std::string dir = ctx.work_dir + "/lease-" + harness::LeaseJournal::mode_name(mode);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  harness::LeaseJournal::Options options;
  options.path = dir + "/leases.journal";
  options.worker = "bench";
  options.domain = tuples;
  options.fingerprint = 1;
  options.mode = mode;
  harness::LeaseJournal journal(options);
  std::size_t won = 0;
  const auto start = Clock::now();
  {
    Span span("harness.lease.claim_release", "harness");
    for (std::size_t t = 0; t < tuples; ++t) {
      won += journal.claim(t, 1).size();
      journal.release(t);
    }
  }
  const double us = since(start) * 1e6 / static_cast<double>(tuples);
  ctx.checks.op(won == tuples && journal.all_released(0, tuples),
                std::string("lease claim/release lost tuples in mode ") +
                    harness::LeaseJournal::mode_name(mode),
                tuples);
  return us;
}

/// Seconds of a leukocyte curated-TAF sweep (thread-level specs at the
/// app's first items-per-thread point) under report+differential audit.
double audit_sweep_s(Context& ctx, bool cache, std::string& csv) {
  const approx::ExecTuning previous = approx::RegionExecutor::default_tuning();
  approx::ExecTuning tuning = previous;
  tuning.audit_mode = approx::audit::AuditMode::kReport;
  tuning.audit_differential = true;
  tuning.audit_extent_cache = cache;
  approx::RegionExecutor::set_default_tuning(tuning);
  auto app = apps::make_benchmark("leukocyte");
  harness::Explorer explorer(*app, sim::v100());
  explorer.baseline();
  const auto start = Clock::now();
  {
    Span span("approx.audit.sweep", "approx");
    explorer.sweep(harness::curated_taf_specs({pragma::HierarchyLevel::kThread}),
                   {app->memo_items_axis().front()}, /*num_threads=*/1);
  }
  const double seconds = since(start);
  approx::RegionExecutor::set_default_tuning(previous);
  csv = csv_text(explorer.db());
  ctx.check_digest("audit.leukocyte.taf", digest(csv), explorer.db().size());
  return seconds;
}

}  // namespace

void run_engine_layers(Context& ctx) {
  for (const char* technique : {"taf", "iact", "perfo"}) {
    ctx.layer.set(std::string("approx.exec_items_per_s.") + technique,
                  exec_items_per_s(ctx, technique, 3), "1/s");
  }

  std::vector<int> off_indices, best_indices;
  ctx.layer.set("approx.iact.find_nearest_ns.off", find_nearest_ns(simd::Level::kOff, off_indices),
                "ns");
  ctx.layer.set("approx.iact.find_nearest_ns.best",
                find_nearest_ns(simd::max_runtime_level(), best_indices), "ns");
  ctx.checks.op(off_indices == best_indices, "iACT scan differs across SIMD levels",
                off_indices.size());

  ctx.layer.set("approx.taf.window_rsd_ns", window_rsd_ns(), "ns");
  ctx.layer.set("sim.tracker.finalize_us", tracker_finalize_us(), "us");
  ctx.layer.set("pragma.parse_us", parse_us(ctx), "us");
  ctx.layer.set("harness.lease.claim_release_us.append",
                claim_release_us(ctx, harness::LeaseJournal::AppendMode::kAtomicAppend, 2048),
                "us");
  ctx.layer.set("harness.lease.claim_release_us.rename",
                claim_release_us(ctx, harness::LeaseJournal::AppendMode::kRenameRewrite, 256),
                "us");

  std::string csv_on, csv_off;
  ctx.layer.set("approx.audit.sweep_s.cache_on", audit_sweep_s(ctx, true, csv_on), "s");
  ctx.layer.set("approx.audit.sweep_s.cache_off", audit_sweep_s(ctx, false, csv_off), "s");
  ctx.checks.op(csv_on == csv_off, "audit extent cache changes the sweep CSV");
}

}  // namespace perfbench
