// Behavioral tests of the RegionExecutor — the warp-synchronous engine
// that implements the paper's GPU AC algorithms.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "approx/iact.hpp"
#include "approx/region.hpp"
#include "approx/taf.hpp"
#include "apps/support.hpp"
#include "common/error.hpp"
#include "common/scheduler.hpp"
#include "common/stats.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;
using namespace hpac::approx;

namespace {

struct TestRegion {
  std::uint64_t n = 1 << 12;
  std::vector<double> out;
  std::function<double(std::uint64_t)> f = [](std::uint64_t i) {
    return 1.0 + static_cast<double>(i % 7);
  };

  RegionBinding binding(double cost = 100.0, int in_dims = 1) {
    out.assign(n, -1.0);
    RegionBinding b;
    b.in_dims = in_dims;
    b.out_dims = 1;
    apps::bind_gather(b, [](std::uint64_t i, double* in) { in[0] = static_cast<double>(i % 7); });
    apps::bind_accurate(b, [this](std::uint64_t i, double* o) { o[0] = f(i); });
    apps::bind_constant_cost(b, cost);
    apps::bind_commit(b, [this](std::uint64_t i, const double* o) { out[i] = o[0]; });
    b.independent_items = true;  // commits touch only out[i]
    return b;
  }

  std::vector<double> reference() const {
    std::vector<double> ref(n);
    for (std::uint64_t i = 0; i < n; ++i) ref[i] = f(i);
    return ref;
  }
};

RegionReport run_spec(TestRegion& region, const RegionBinding& binding, const char* clause,
                      std::uint64_t ipt = 16,
                      sim::DeviceConfig dev = sim::v100()) {
  RegionExecutor executor(dev);
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, ipt, 128);
  return executor.run(pragma::parse_approx(clause), binding, region.n, launch);
}

}  // namespace

TEST(Region, BaselineComputesEveryItemExactly) {
  TestRegion region;
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "none");
  EXPECT_EQ(region.out, region.reference());
  EXPECT_EQ(report.stats.accurate_items, region.n);
  EXPECT_EQ(report.stats.approx_items, 0u);
  EXPECT_EQ(report.stats.region_invocations, region.n);
}

TEST(Region, StatsPartitionInvocations) {
  TestRegion region;
  auto binding = region.binding();
  for (const char* clause :
       {"none", "perfo(small:4)", "memo(out:2:8:0.5)", "memo(in:4:0.5:2) in(x) out(y)"}) {
    const auto report = run_spec(region, binding, clause);
    EXPECT_EQ(report.stats.accurate_items + report.stats.approx_items +
                  report.stats.skipped_items,
              report.stats.region_invocations)
        << clause;
  }
}

TEST(Region, ConstantFunctionTafIsErrorFree) {
  TestRegion region;
  region.f = [](std::uint64_t) { return 42.0; };
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "memo(out:3:16:0.3)");
  EXPECT_GT(report.stats.approx_items, region.n / 2);
  for (double v : region.out) ASSERT_DOUBLE_EQ(v, 42.0);
}

TEST(Region, TafRespectsThreshold) {
  TestRegion region;  // i % 7: wildly varying outputs per grid-stride step
  auto binding = region.binding();
  const auto strict = run_spec(region, binding, "memo(out:3:16:0.01)");
  EXPECT_EQ(strict.stats.approx_items, 0u);
  EXPECT_EQ(region.out, region.reference());
}

TEST(Region, TafSpeedsUpStableRegions) {
  TestRegion region;
  region.f = [](std::uint64_t) { return 7.0; };
  auto binding = region.binding(500.0);
  const auto base = run_spec(region, binding, "none");
  const auto taf = run_spec(region, binding, "memo(out:2:32:0.3)");
  EXPECT_LT(taf.timing.seconds, base.timing.seconds);
}

TEST(Region, IactExactRepeatsHitCache) {
  TestRegion region;
  // Inputs repeat with period 7 along each thread's grid-stride walk.
  auto binding = region.binding(200.0, 1);
  const auto report = run_spec(region, binding, "memo(in:8:0.1:2) in(x) out(y)");
  EXPECT_GT(report.stats.iact_hits, 0u);
  EXPECT_GT(report.stats.approx_items, 0u);
  // Exact-repeat workload: cached outputs are identical to accurate ones.
  EXPECT_EQ(region.out, region.reference());
}

TEST(Region, IactRequiresUniformInputs) {
  TestRegion region;
  auto binding = region.binding(100.0, 0);  // no uniform input key
  binding.gather_batch = nullptr;
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 8, 128);
  EXPECT_THROW(executor.run(pragma::parse_approx("memo(in:4:0.5:2) in(x) out(y)"), binding,
                            region.n, launch),
               ConfigError);
}

TEST(Region, IactTablesPerWarpMustDivideWarp) {
  TestRegion region;
  auto binding = region.binding();
  EXPECT_THROW(run_spec(region, binding, "memo(in:4:0.5:3) in(x) out(y)"), ConfigError);
  // 64 tables per warp only fit the AMD wavefront (Table 2).
  EXPECT_THROW(run_spec(region, binding, "memo(in:4:0.5:64) in(x) out(y)"), ConfigError);
  EXPECT_NO_THROW(
      run_spec(region, binding, "memo(in:4:0.5:64) in(x) out(y)", 16, sim::mi250x()));
}

TEST(Region, SharedMemoryOverflowIsConfigError) {
  TestRegion region;
  auto binding = region.binding();
  // History 512 x 128 threads x 8B >> 96KB shared memory.
  pragma::ApproxSpec spec;
  spec.technique = pragma::Technique::kTafMemo;
  spec.taf = pragma::TafParams{4096, 8, 0.5};
  spec.out_sections.push_back("o");
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 8, 128);
  EXPECT_THROW(executor.run(spec, binding, region.n, launch), ConfigError);
}

TEST(Region, AcStateBytesMatchFootprints) {
  TestRegion region;
  auto binding = region.binding();
  RegionExecutor executor(sim::v100());
  sim::LaunchConfig launch;
  launch.num_teams = 4;
  launch.threads_per_team = 128;

  pragma::ApproxSpec taf = pragma::parse_approx("memo(out:3:8:0.5)");
  EXPECT_EQ(executor.ac_state_bytes_per_block(taf, binding, launch),
            128 * TafState::footprint_bytes(3, 1));

  pragma::ApproxSpec iact = pragma::parse_approx("memo(in:4:0.5:2) in(x) out(y)");
  EXPECT_EQ(executor.ac_state_bytes_per_block(iact, binding, launch),
            4u * 2u * IactTable::footprint_bytes(4, 1, 1));

  pragma::ApproxSpec perfo = pragma::parse_approx("perfo(small:2)");
  EXPECT_EQ(executor.ac_state_bytes_per_block(perfo, binding, launch), 0u);
}

TEST(Region, PerforationSkipsExpectedFraction) {
  TestRegion region;
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "perfo(small:4)", 16);
  const double skipped =
      static_cast<double>(report.stats.skipped_items) / region.n;
  EXPECT_NEAR(skipped, 0.25, 0.05);
  // Skipped items keep their prior (initialization) value.
  std::size_t untouched = 0;
  for (double v : region.out) untouched += v == -1.0;
  EXPECT_EQ(untouched, report.stats.skipped_items);
}

TEST(Region, IniPerforationDropsPrefixAtAnyLaunch) {
  TestRegion region;
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "perfo(ini:0.5)", 1);
  EXPECT_NEAR(static_cast<double>(report.stats.skipped_items) / region.n, 0.5, 0.01);
  EXPECT_EQ(region.out[0], -1.0);
  EXPECT_NE(region.out[region.n - 1], -1.0);
}

TEST(Region, HerdedPerforationAvoidsFragmentedWarps) {
  TestRegion region;
  auto binding = region.binding(50.0);
  const auto herded = run_spec(region, binding, "perfo(small:2)", 16);
  const auto cpu_style = run_spec(region, binding, "perfo(small:2) herded(0)", 16);
  // Same work dropped, but the herded pattern issues fewer transactions.
  EXPECT_NEAR(static_cast<double>(herded.stats.skipped_items),
              static_cast<double>(cpu_style.stats.skipped_items),
              static_cast<double>(region.n) * 0.05);
  EXPECT_LT(herded.timing.total_transactions, cpu_style.timing.total_transactions);
  EXPECT_LE(herded.timing.seconds, cpu_style.timing.seconds);
}

TEST(Region, WarpLevelEliminatesDivergence) {
  TestRegion region;
  // 60% of items stable, interleaved: thread-level decisions split warps.
  region.f = [](std::uint64_t i) {
    return i % 5 < 3 ? 10.0 : 10.0 + std::sin(static_cast<double>(i));
  };
  auto binding = region.binding(300.0);
  const auto thread_level = run_spec(region, binding, "memo(out:3:16:0.05)");
  const auto warp_level = run_spec(region, binding, "memo(out:3:16:0.05) level(warp)");
  EXPECT_GT(thread_level.timing.divergent_regions, 0u);
  EXPECT_EQ(warp_level.timing.divergent_regions, 0u);
  EXPECT_LT(warp_level.timing.seconds, thread_level.timing.seconds);
  EXPECT_GT(warp_level.stats.forced_approx + warp_level.stats.forced_accurate, 0u);
}

TEST(Region, BlockLevelDecisionsAreBlockUniform) {
  TestRegion region;
  region.f = [](std::uint64_t) { return 3.0; };
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "memo(out:2:16:0.3) level(team)");
  // With uniformly stable outputs, whole blocks flip to the approximate
  // path; divergence must be zero.
  EXPECT_EQ(report.timing.divergent_regions, 0u);
  EXPECT_GT(report.stats.approx_items, 0u);
}

TEST(Region, MissingCallbacksAreRejected) {
  TestRegion region;
  RegionBinding empty;
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(64, 1, 32);
  EXPECT_THROW(executor.run(pragma::parse_approx("none"), empty, 64, launch), Error);
}

TEST(Region, IncompleteBindingsAreRejectedBeforeAnyWork) {
  // Each required operation missing in turn, an iACT region that declares
  // inputs but cannot gather them, and tables per warp that do not divide
  // the warp: `run` and `run_composed` both reject the launch before a
  // single item is committed.
  const auto keep_all = [](RegionBinding&) {};
  const auto drop_accurate = [](RegionBinding& b) { b.accurate_batch = nullptr; };
  const auto drop_cost = [](RegionBinding& b) { b.accurate_cost_batch = nullptr; };
  const auto drop_commit = [](RegionBinding& b) { b.commit_batch = nullptr; };
  const auto drop_gather = [](RegionBinding& b) { b.gather_batch = nullptr; };
  struct Case {
    const char* what;
    void (*drop)(RegionBinding&);
    const char* memo;
  };
  const Case cases[] = {
      {"accurate_batch", drop_accurate, "memo(out:2:8:0.5)"},
      {"accurate_cost_batch", drop_cost, "memo(out:2:8:0.5)"},
      {"commit_batch", drop_commit, "memo(out:2:8:0.5)"},
      {"gather_batch (iACT)", drop_gather, "memo(in:4:0.5:2) in(x) out(y)"},
      {"tables per warp (iACT)", keep_all, "memo(in:4:0.5:3) in(x) out(y)"},
  };
  RegionExecutor executor(sim::v100());
  for (const Case& c : cases) {
    TestRegion region;
    RegionBinding binding = region.binding();
    c.drop(binding);
    const std::vector<double> untouched = region.out;
    const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
    EXPECT_THROW(executor.run(pragma::parse_approx(c.memo), binding, region.n, launch), Error)
        << c.what;
    EXPECT_EQ(region.out, untouched) << c.what;
    EXPECT_THROW(executor.run_composed(pragma::parse_approx("perfo(small:4)"),
                                       pragma::parse_approx(c.memo), binding, region.n, launch),
                 Error)
        << c.what;
    EXPECT_EQ(region.out, untouched) << c.what;
  }
}

TEST(Region, AcStateOverSharedMemoryIsRejectedBeforeAnyWork) {
  // `validate_launch` is the one shared-memory budget: a TAF history too
  // deep or an iACT table too large for the block is a ConfigError from
  // both entry points, raised before a single item is committed.
  const char* const over_budget[] = {
      "memo(out:94:8:0.5)",                // 128 threads x 776 B > 96 KB
      "memo(in:4096:0.5:2) in(x) out(y)",  // 4 warps x 2 tables x 72 KB
  };
  RegionExecutor executor(sim::v100());
  for (const char* memo : over_budget) {
    TestRegion region;
    const RegionBinding binding = region.binding();
    const std::vector<double> untouched = region.out;
    const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
    const pragma::ApproxSpec spec = pragma::parse_approx(memo);
    EXPECT_GT(executor.ac_state_bytes_per_block(spec, binding, launch),
              executor.device().shared_mem_per_block)
        << memo;
    EXPECT_THROW(executor.run(spec, binding, region.n, launch), ConfigError) << memo;
    EXPECT_EQ(region.out, untouched) << memo;
    EXPECT_THROW(executor.run_composed(pragma::parse_approx("perfo(small:4)"), spec, binding,
                                       region.n, launch),
                 ConfigError)
        << memo;
    EXPECT_EQ(region.out, untouched) << memo;
  }
}

TEST(Region, AcStateFillingSharedMemoryExactlyRuns) {
  // 128 threads x (93 + 1) doubles + 16 B of bookkeeping is 96 KB, the
  // V100's whole per-block budget: the boundary is inclusive.
  TestRegion region;
  const RegionBinding binding = region.binding();
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
  const pragma::ApproxSpec spec = pragma::parse_approx("memo(out:93:8:0.5)");
  ASSERT_EQ(executor.ac_state_bytes_per_block(spec, binding, launch),
            executor.device().shared_mem_per_block);
  const RegionReport report = executor.run(spec, binding, region.n, launch);
  EXPECT_EQ(report.stats.region_invocations, region.n);
  EXPECT_EQ(report.stats.shared_bytes_per_block, executor.device().shared_mem_per_block);
  const RegionReport composed = executor.run_composed(pragma::parse_approx("perfo(small:4)"), spec,
                                                      binding, region.n, launch);
  EXPECT_EQ(composed.stats.region_invocations, region.n);
}

TEST(Region, PartialTailWarpHandled) {
  TestRegion region;
  region.n = 1000;  // not a multiple of warp or team sizes
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "none", 3);
  EXPECT_EQ(report.stats.region_invocations, 1000u);
  EXPECT_EQ(region.out, region.reference());
}

TEST(Region, DeterministicAcrossRuns) {
  TestRegion region;
  auto binding = region.binding();
  const auto a = run_spec(region, binding, "memo(out:3:8:0.5) level(warp)");
  const std::vector<double> first = region.out;
  const auto b = run_spec(region, binding, "memo(out:3:8:0.5) level(warp)");
  EXPECT_EQ(first, region.out);
  EXPECT_DOUBLE_EQ(a.timing.seconds, b.timing.seconds);
  EXPECT_EQ(a.stats.approx_items, b.stats.approx_items);
}

class RegionDeviceSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(RegionDeviceSweep, AllTechniquesRunOnBothPlatforms) {
  for (const auto& dev : {sim::v100(), sim::mi250x()}) {
    TestRegion region;
    auto binding = region.binding();
    const auto report = run_spec(region, binding, GetParam(), 16, dev);
    EXPECT_GT(report.timing.seconds, 0.0) << dev.name;
    EXPECT_EQ(report.stats.region_invocations, region.n) << dev.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Clauses, RegionDeviceSweep,
                         ::testing::Values("none", "perfo(small:2)", "perfo(fini:0.3)",
                                           "memo(out:3:8:0.5)",
                                           "memo(out:3:8:0.5) level(warp)",
                                           "memo(out:3:8:0.5) level(team)",
                                           "memo(in:4:0.5:2) in(x) out(y)",
                                           "memo(in:4:0.5:2) level(warp) in(x) out(y)"));

TEST(Region, TafReducesMemoryTraffic) {
  // Approximated steps skip the accurate path's loads; with a stable
  // region most transactions disappear.
  TestRegion region;
  region.f = [](std::uint64_t) { return 1.0; };
  auto binding = region.binding(100.0);
  binding.in_bytes = 32;
  const auto base = run_spec(region, binding, "none");
  const auto taf = run_spec(region, binding, "memo(out:1:64:0.5) level(warp)");
  EXPECT_LT(taf.timing.total_transactions, base.timing.total_transactions / 2);
}

TEST(Region, IactHitsNeverExceedInvocations) {
  TestRegion region;
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "memo(in:8:0.5:2) in(x) out(y)");
  EXPECT_LE(report.stats.iact_hits, report.stats.region_invocations);
}

TEST(Region, OccupancyReportedInUnitInterval) {
  TestRegion region;
  auto binding = region.binding();
  for (std::uint64_t ipt : {1ull, 8ull, 64ull}) {
    const auto report = run_spec(region, binding, "none", ipt);
    EXPECT_GT(report.timing.occupancy, 0.0);
    EXPECT_LE(report.timing.occupancy, 1.0);
  }
}

TEST(Region, TafStableEntriesCounted) {
  TestRegion region;
  region.f = [](std::uint64_t) { return 2.0; };
  auto binding = region.binding();
  const auto report = run_spec(region, binding, "memo(out:2:4:0.5)");
  EXPECT_GT(report.stats.taf_stable_entries, 0u);
}

TEST(Region, SharedStateScopedToKernel) {
  // Two consecutive runs behave identically: AC state must not leak
  // across kernel launches (paper: destroyed at kernel completion).
  TestRegion region;
  region.f = [](std::uint64_t) { return 3.0; };
  auto binding = region.binding();
  const auto first = run_spec(region, binding, "memo(out:2:8:0.5)");
  const auto second = run_spec(region, binding, "memo(out:2:8:0.5)");
  EXPECT_EQ(first.stats.approx_items, second.stats.approx_items);
  EXPECT_EQ(first.stats.taf_stable_entries, second.stats.taf_stable_entries);
}

// --- Figure 2 composition: perforation around a memoized region ---------

TEST(Composed, PerfoPlusTafPartitionsInvocations) {
  TestRegion region;
  region.f = [](std::uint64_t) { return 5.0; };
  auto binding = region.binding();
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
  const auto report = executor.run_composed(pragma::parse_approx("perfo(small:4)"),
                                            pragma::parse_approx("memo(out:2:8:0.5)"),
                                            binding, region.n, launch);
  EXPECT_NEAR(static_cast<double>(report.stats.skipped_items) / region.n, 0.25, 0.05);
  EXPECT_GT(report.stats.approx_items, 0u);
  EXPECT_EQ(report.stats.accurate_items + report.stats.approx_items +
                report.stats.skipped_items,
            report.stats.region_invocations);
}

TEST(Composed, PaperFigure2Example) {
  // perfo(small:4) around memo(in:10:0.5f) — the paper's exact example.
  TestRegion region;
  auto binding = region.binding();
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
  const auto report = executor.run_composed(
      pragma::parse_approx("perfo(small:4)"),
      pragma::parse_approx("memo(in: 10 : 0.5f) in(input[i]) out(output[i])"), binding,
      region.n, launch);
  EXPECT_GT(report.stats.skipped_items, 0u);
  EXPECT_GT(report.stats.iact_hits, 0u);
}

TEST(Composed, CpuStylePerfoFiltersLanes) {
  TestRegion region;
  auto binding = region.binding();
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
  const auto report = executor.run_composed(pragma::parse_approx("perfo(large:4) herded(0)"),
                                            pragma::parse_approx("memo(out:2:8:0.5)"),
                                            binding, region.n, launch);
  EXPECT_NEAR(static_cast<double>(report.stats.skipped_items) / region.n, 0.75, 0.05);
}

TEST(Composed, ChargesPerfoCheckLikeStandalonePerforation) {
  // The difference of two runs that differ only in the perforation
  // check's cost counts the warp-steps charged for it. Composed over
  // either memoization technique, every pattern must charge exactly the
  // warp-steps standalone perforation charges: every active one.
  const auto charged = [](const char* perfo, const char* memo) {
    double cycles[2];
    for (int i = 0; i < 2; ++i) {
      RuntimeCosts costs;
      costs.perfo_check = i == 0 ? 1000.0 : 0.0;
      RegionExecutor executor(sim::v100(), costs);
      TestRegion region;
      region.n = 16384;
      auto binding = region.binding();
      const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
      const auto report =
          memo == nullptr
              ? executor.run(pragma::parse_approx(perfo), binding, region.n, launch)
              : executor.run_composed(pragma::parse_approx(perfo), pragma::parse_approx(memo),
                                      binding, region.n, launch);
      cycles[i] = report.timing.compute_cycles_total;
    }
    return (cycles[0] - cycles[1]) / 1000.0;
  };
  for (const char* perfo :
       {"perfo(small:4)", "perfo(large:4)", "perfo(small:4) herded(0)", "perfo(ini:0.3)"}) {
    const double standalone = charged(perfo, nullptr);
    EXPECT_GT(standalone, 0.0) << perfo;
    for (const char* memo : {"memo(out:2:8:0.5)", "memo(in:4:0.5:2) in(x) out(y)"}) {
      EXPECT_EQ(charged(perfo, memo), standalone) << perfo << " + " << memo;
    }
  }
}

TEST(Composed, RejectsWrongDirectiveKinds) {
  TestRegion region;
  auto binding = region.binding();
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
  EXPECT_THROW(executor.run_composed(pragma::parse_approx("memo(out:2:8:0.5)"),
                                     pragma::parse_approx("memo(out:2:8:0.5)"), binding,
                                     region.n, launch),
               ConfigError);
  EXPECT_THROW(executor.run_composed(pragma::parse_approx("perfo(small:2)"),
                                     pragma::parse_approx("perfo(small:2)"), binding,
                                     region.n, launch),
               ConfigError);
}

TEST(Composed, SkippedItemsNeverTouchAcState) {
  // With everything perforated away except one step per cycle, the memo
  // logic sees a sparser stream; outputs of skipped items stay at the
  // initialization value.
  TestRegion region;
  auto binding = region.binding();
  RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
  executor.run_composed(pragma::parse_approx("perfo(large:16)"),
                        pragma::parse_approx("memo(out:1:4:0.5)"), binding, region.n,
                        launch);
  std::size_t untouched = 0;
  for (double v : region.out) untouched += v == -1.0;
  EXPECT_GT(untouched, region.n / 2);
}

// --- team sharding ---------------------------------------------------------

namespace {

/// Forced-sharding tuning: splits even the small test launches.
ExecTuning forced_shards(std::size_t threads) {
  ExecTuning tuning;
  tuning.max_threads = threads;
  tuning.min_items = 0;
  return tuning;
}

struct EngineRun {
  std::vector<double> out;
  RegionReport report;
};

EngineRun run_with_tuning(TestRegion& region, RegionBinding binding, const char* clause,
                          const ExecTuning& tuning, std::uint64_t ipt = 16) {
  RegionExecutor executor(sim::v100());
  executor.set_tuning(tuning);
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, ipt, 128);
  EngineRun run;
  run.report = executor.run(pragma::parse_approx(clause), binding, region.n, launch);
  run.out = region.out;
  return run;
}

void expect_identical(const EngineRun& a, const EngineRun& b, const char* what) {
  EXPECT_EQ(a.out, b.out) << what;
  EXPECT_EQ(a.report.stats.region_invocations, b.report.stats.region_invocations) << what;
  EXPECT_EQ(a.report.stats.accurate_items, b.report.stats.accurate_items) << what;
  EXPECT_EQ(a.report.stats.approx_items, b.report.stats.approx_items) << what;
  EXPECT_EQ(a.report.stats.skipped_items, b.report.stats.skipped_items) << what;
  EXPECT_EQ(a.report.stats.iact_hits, b.report.stats.iact_hits) << what;
  EXPECT_EQ(a.report.stats.taf_stable_entries, b.report.stats.taf_stable_entries) << what;
  EXPECT_EQ(a.report.stats.forced_approx, b.report.stats.forced_approx) << what;
  EXPECT_EQ(a.report.stats.forced_accurate, b.report.stats.forced_accurate) << what;
  // Bit-identical timing, not approximately-equal timing: each shard
  // charges only its own teams' ledgers of one tracker, and every charge
  // is computed in the same order.
  EXPECT_EQ(a.report.timing.seconds, b.report.timing.seconds) << what;
  EXPECT_EQ(a.report.timing.critical_path_cycles, b.report.timing.critical_path_cycles)
      << what;
  EXPECT_EQ(a.report.timing.total_transactions, b.report.timing.total_transactions) << what;
  EXPECT_EQ(a.report.timing.divergent_regions, b.report.timing.divergent_regions) << what;
  EXPECT_EQ(a.report.timing.compute_cycles_total, b.report.timing.compute_cycles_total)
      << what;
}

const char* kEngineClauses[] = {
    "none",
    "perfo(small:4)",
    "perfo(small:2) herded(0)",
    "memo(out:3:8:0.5)",
    "memo(out:3:8:0.5) level(warp)",
    "memo(in:4:0.5:2) in(x) out(y)",
    "memo(in:4:0.5:2) level(team) in(x) out(y)",
};

}  // namespace

TEST(RegionParallel, TeamShardingIsBitIdenticalToSerial) {
  ExecTuning serial;
  serial.max_threads = 1;
  for (const char* clause : kEngineClauses) {
    TestRegion region;
    const EngineRun reference = run_with_tuning(region, region.binding(), clause, serial);
    for (std::size_t threads : {2u, 3u, 4u}) {
      TestRegion sharded_region;
      const EngineRun sharded = run_with_tuning(sharded_region, sharded_region.binding(),
                                                clause, forced_shards(threads));
      expect_identical(reference, sharded, clause);
    }
  }
}

TEST(RegionParallel, ComposedShardingIsBitIdenticalToSerial) {
  const auto run_composed = [](TestRegion& region, const ExecTuning& tuning) {
    RegionExecutor executor(sim::v100());
    executor.set_tuning(tuning);
    const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
    EngineRun run;
    run.report = executor.run_composed(pragma::parse_approx("perfo(small:4)"),
                                       pragma::parse_approx("memo(out:2:8:0.5)"),
                                       region.binding(), region.n, launch);
    run.out = region.out;
    return run;
  };
  ExecTuning serial;
  serial.max_threads = 1;
  TestRegion serial_region;
  const EngineRun reference = run_composed(serial_region, serial);
  TestRegion sharded_region;
  const EngineRun sharded = run_composed(sharded_region, forced_shards(4));
  expect_identical(reference, sharded, "composed");
}

TEST(RegionParallel, FewTeamLaunchesShardByDefault) {
  // The items-per-thread axis (kmeans at ipt 64) produces big launches with
  // only a few teams. Under the default tuning they shard on item count
  // alone: 32,768 items at ipt 64 and 128 threads per team is 4 teams, so
  // 4 shards on 4 threads — bit-identical to the serial engine.
  ExecTuning four_threads;
  four_threads.max_threads = 4;
  ExecTuning serial;
  serial.max_threads = 1;
  for (const char* clause : kEngineClauses) {
    TestRegion serial_region;
    serial_region.n = 1 << 15;
    const EngineRun reference =
        run_with_tuning(serial_region, serial_region.binding(), clause, serial, 64);
    EXPECT_EQ(reference.report.stats.host_shards, 1u) << clause;
    TestRegion region;
    region.n = 1 << 15;
    const EngineRun sharded = run_with_tuning(region, region.binding(), clause, four_threads, 64);
    EXPECT_EQ(sharded.report.stats.host_shards, 4u) << clause;
    expect_identical(reference, sharded, clause);
  }
}

TEST(RegionParallel, NonIndependentBindingStaysSerial) {
  // A binding that accumulates across items must not be sharded; the
  // executor falls back to serial execution and the reduction order is
  // preserved exactly.
  TestRegion region;
  RegionBinding b = region.binding();
  b.independent_items = false;
  double sum = 0.0;
  apps::bind_commit(b, [&sum](std::uint64_t, const double* o) { sum += o[0]; });
  ExecTuning tuning = forced_shards(4);
  RegionExecutor executor(sim::v100());
  executor.set_tuning(tuning);
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 16, 128);
  executor.run(pragma::parse_approx("none"), b, region.n, launch);
  double expected = 0.0;
  for (std::uint64_t i = 0; i < region.n; ++i) expected += region.f(i);
  EXPECT_EQ(sum, expected);
}

TEST(RegionParallel, NestedLaunchInsideSchedulerTaskStillShards) {
  // PR 3's engine forced shards = 1 whenever the caller was a pool worker
  // (the binary on_worker_thread gate), so a region launched from an
  // Explorer/Campaign worker silently ran serial. On the shared
  // scheduler the nested launch fans out: its shards are an open job that
  // idle workers join and the submitting worker executes its share. The
  // shard decision is observable via stats.host_shards; results stay
  // bit-identical to the serial engine.
  ExecTuning serial;
  serial.max_threads = 1;
  TestRegion serial_region;
  const EngineRun reference =
      run_with_tuning(serial_region, serial_region.binding(), "memo(out:3:8:0.5)", serial);
  EXPECT_EQ(reference.report.stats.host_shards, 1u);

  EngineRun nested;
  Scheduler::shared().parallel_for(1, [&](std::size_t, std::size_t) {
    TestRegion region;
    nested = run_with_tuning(region, region.binding(), "memo(out:3:8:0.5)",
                             forced_shards(4));
  });
  EXPECT_GT(nested.report.stats.host_shards, 1u);
  expect_identical(reference, nested, "nested launch");
}

TEST(RegionParallel, ConcurrentIndependentLaunchesAllShard) {
  // Two concurrent independent_items launches used to race for a
  // try-locked pool gate: the loser quietly serialized. With the shared
  // scheduler both fan out and both stay bit-identical to serial.
  ExecTuning serial;
  serial.max_threads = 1;
  TestRegion serial_region;
  const EngineRun reference =
      run_with_tuning(serial_region, serial_region.binding(), "memo(out:3:8:0.5)", serial);

  std::vector<EngineRun> runs(2);
  Scheduler::shared().parallel_for(runs.size(), [&](std::size_t, std::size_t i) {
    TestRegion region;
    runs[i] = run_with_tuning(region, region.binding(), "memo(out:3:8:0.5)",
                              forced_shards(4));
  });
  for (const EngineRun& run : runs) {
    EXPECT_GT(run.report.stats.host_shards, 1u);
    expect_identical(reference, run, "concurrent launch");
  }
}

TEST(RegionParallel, ShardMergeStress) {
  // TSan target: many concurrent launches opening shard jobs on the
  // shared scheduler at once. Every launch fans out (no pool gate to lose
  // anymore) — results must be identical regardless of which thread runs
  // which shard.
  ExecTuning serial;
  serial.max_threads = 1;
  TestRegion golden_region;
  const EngineRun reference =
      run_with_tuning(golden_region, golden_region.binding(), "memo(out:3:8:0.5)", serial, 8);

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 3;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        TestRegion region;
        const EngineRun run = run_with_tuning(region, region.binding(), "memo(out:3:8:0.5)",
                                              forced_shards(4), 8);
        if (run.out != reference.out ||
            run.report.timing.seconds != reference.report.timing.seconds ||
            run.report.stats.approx_items != reference.report.stats.approx_items) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
}
