// Tests of the SIMD dispatch shim (hpac::simd) and of the tree-wide
// bit-identity contract: every reachable dispatch level must produce
// byte-identical application QoI and sweep CSVs, because every vector
// kernel replicates its scalar reference's per-lane operation sequence.
// (The per-kernel property tests live next to their subjects:
// test_iact.cpp for the table scan, test_taf.cpp for the incremental
// RSD.) The CI dispatch matrix re-checks the same invariant across
// *processes* via HPAC_SIMD; these tests check it in-process via
// set_level, so a plain `ctest` run covers it on any host.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "apps/simd_kernels.hpp"
#include "apps/support.hpp"
#include "approx/region.hpp"
#include "common/simd.hpp"
#include "harness/explorer.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;

namespace {

/// Restores the process-wide dispatch level even on assertion failure.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : previous_(simd::active_level()) {}
  ~SimdLevelGuard() { simd::set_level(previous_); }

 private:
  simd::Level previous_;
};

std::vector<simd::Level> reachable_levels() {
  std::vector<simd::Level> levels{simd::Level::kOff};
  if (simd::max_runtime_level() >= simd::Level::kSse2) levels.push_back(simd::Level::kSse2);
  if (simd::max_runtime_level() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  return levels;
}

}  // namespace

// --- shim behavior ----------------------------------------------------------

TEST(Simd, LevelNamesMatchEnvSpellings) {
  EXPECT_STREQ(simd::level_name(simd::Level::kOff), "off");
  EXPECT_STREQ(simd::level_name(simd::Level::kSse2), "sse2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(Simd, DispatchInfoIsInternallyConsistent) {
  const simd::DispatchInfo info = simd::dispatch_info();
  EXPECT_LE(info.active, info.max_runtime);
  EXPECT_LE(info.max_runtime, info.max_compiled);
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 is the x86-64 baseline: always compiled, always available.
  EXPECT_GE(info.max_compiled, simd::Level::kSse2);
  EXPECT_GE(info.max_runtime, simd::Level::kSse2);
#endif
}

TEST(Simd, SetLevelClampsToRuntimeMaxAndRoundTrips) {
  SimdLevelGuard guard;
  // Asking for more than the host has degrades to the widest available.
  const simd::Level installed = simd::set_level(simd::Level::kAvx2);
  EXPECT_LE(installed, simd::max_runtime_level());
  EXPECT_EQ(installed, simd::active_level());
  // kOff is always installable exactly.
  EXPECT_EQ(simd::set_level(simd::Level::kOff), simd::Level::kOff);
  EXPECT_EQ(simd::active_level(), simd::Level::kOff);
}

TEST(Simd, KernelDispatchFollowsLevel) {
  SimdLevelGuard guard;
  simd::set_level(simd::Level::kOff);
  EXPECT_EQ(apps::kernels::blackscholes_batch_fn(), nullptr);
  EXPECT_EQ(apps::kernels::binomial_induct_fn(), nullptr);
  const simd::Level best = simd::set_level(simd::max_runtime_level());
  if (best >= simd::Level::kSse2) {
    EXPECT_NE(apps::kernels::blackscholes_batch_fn(), nullptr);
    EXPECT_NE(apps::kernels::binomial_induct_fn(), nullptr);
  }
}

// --- observability ----------------------------------------------------------

TEST(Simd, ExecStatsReportTheActiveDispatchLevel) {
  SimdLevelGuard guard;
  std::vector<double> out(1u << 10, 0.0);
  approx::RegionBinding binding;
  binding.in_dims = 0;
  binding.out_dims = 1;
  apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  apps::bind_constant_cost(binding, 10.0);
  apps::bind_commit(binding, [&out](std::uint64_t i, const double* o) { out[i] = o[0]; });
  for (const simd::Level level : reachable_levels()) {
    simd::set_level(level);
    approx::RegionExecutor executor(sim::v100());
    const sim::LaunchConfig launch = sim::launch_for_items_per_thread(out.size(), 8, 128);
    const approx::RegionReport report =
        executor.run(pragma::parse_approx("none"), binding, out.size(), launch);
    EXPECT_EQ(report.stats.simd_level, level) << simd::level_name(level);
  }
}

// --- cross-level bit-identity -----------------------------------------------

namespace {

/// QoI of one full app run at the given dispatch level. Apps resolve
/// their kernels per run(), so flipping the level between runs is enough.
std::vector<double> qoi_at_level(const std::string& app_name, const char* clause,
                                 simd::Level level) {
  simd::set_level(level);
  auto app = apps::make_benchmark(app_name);
  return app->run(pragma::parse_approx(clause), 8, sim::v100()).qoi;
}

}  // namespace

TEST(SimdParity, AppQoiBitIdenticalAcrossDispatchLevels) {
  SimdLevelGuard guard;
  // The two apps with vector batch kernels, under both the plain accurate
  // path and the memo techniques that mix approximate answers in.
  for (const char* app : {"blackscholes", "binomial_options"}) {
    for (const char* clause : {"none", "memo(out:3:8:0.5) level(warp)"}) {
      const std::vector<double> reference = qoi_at_level(app, clause, simd::Level::kOff);
      for (const simd::Level level : reachable_levels()) {
        if (level == simd::Level::kOff) continue;
        const std::vector<double> vectored = qoi_at_level(app, clause, level);
        ASSERT_EQ(reference.size(), vectored.size());
        ASSERT_EQ(0, std::memcmp(reference.data(), vectored.data(),
                                 reference.size() * sizeof(double)))
            << app << " '" << clause << "' at " << simd::level_name(level);
      }
    }
  }
}

namespace {

/// A small Explorer sweep serialized to CSV — the byte-identity contract
/// the harness layers rely on, exercised over the apps and techniques the
/// SIMD layer touches (iACT scan, TAF RSD, app batch kernels). lavamd's
/// mean-zero force outputs are the cancellation-heavy TAF case.
std::string sweep_csv_at_level(simd::Level level) {
  simd::set_level(level);
  harness::ResultDb db;
  for (const char* name : {"blackscholes", "binomial_options", "lavamd"}) {
    auto app = apps::make_benchmark(name);
    harness::Explorer explorer(*app, sim::v100());
    for (const char* clause :
         {"memo(out:3:8:0.5) level(warp)", "memo(in:4:0.5:2) in(x) out(y)"}) {
      explorer.run_config(pragma::parse_approx(clause), 8);
    }
    for (const auto& record : explorer.db().records()) db.add(record);
  }
  std::ostringstream os;
  db.to_csv().write(os);
  return os.str();
}

}  // namespace

TEST(SimdParity, SweepCsvBytesInvariantAcrossDispatchLevels) {
  SimdLevelGuard guard;
  const std::string reference = sweep_csv_at_level(simd::Level::kOff);
  ASSERT_FALSE(reference.empty());
  for (const simd::Level level : reachable_levels()) {
    if (level == simd::Level::kOff) continue;
    EXPECT_EQ(sweep_csv_at_level(level), reference) << simd::level_name(level);
  }
}
