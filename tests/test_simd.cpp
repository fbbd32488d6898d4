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

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/registry.hpp"
#include "apps/simd_kernels.hpp"
#include "apps/support.hpp"
#include "approx/region.hpp"
#include "common/rng.hpp"
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
  if (simd::max_runtime_level() == simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  return levels;
}

}  // namespace

// --- shim behavior ----------------------------------------------------------

TEST(Simd, LevelNamesMatchEnvSpellings) {
  EXPECT_STREQ(simd::level_name(simd::Level::kOff), "off");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(Simd, DispatchInfoIsInternallyConsistent) {
  const simd::DispatchInfo info = simd::dispatch_info();
  EXPECT_LE(info.active, info.max_runtime);
  EXPECT_LE(info.max_runtime, info.max_compiled);
#if !defined(__x86_64__) && !defined(_M_X64)
  // AVX2 is the only vector level; other ISAs run the scalar reference.
  EXPECT_EQ(info.max_compiled, simd::Level::kOff);
#endif
}

// tests/CMakeLists.txt runs this test alone under HPAC_SIMD=sse2, the
// spelling of the retired SSE2 level: like any unknown spelling it is
// ignored, and the default level wins.
TEST(SimdEnv, RetiredSse2SpellingLeavesTheDefault) {
  const char* env = std::getenv("HPAC_SIMD");
  if (env == nullptr || std::string_view(env) != "sse2") {
    GTEST_SKIP() << "needs HPAC_SIMD=sse2";
  }
  EXPECT_FALSE(simd::dispatch_info().env_override);
  EXPECT_EQ(simd::active_level(), simd::max_runtime_level());
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
  EXPECT_EQ(apps::kernels::kmeans_assign_fn(), nullptr);
  EXPECT_EQ(apps::kernels::kmeans_accumulate_fn(), nullptr);
  if (simd::set_level(simd::Level::kAvx2) == simd::Level::kAvx2) {
    EXPECT_NE(apps::kernels::blackscholes_batch_fn(), nullptr);
    EXPECT_NE(apps::kernels::binomial_induct_fn(), nullptr);
    EXPECT_NE(apps::kernels::kmeans_assign_fn(), nullptr);
    EXPECT_NE(apps::kernels::kmeans_accumulate_fn(), nullptr);
  }
}

TEST(Simd, KMeansKernelsMatchScalarLoopsAtEveryShape) {
  // kmeans itself runs 8 clusters x 8 dims, which both vector widths
  // divide; these shapes also reach the scalar remainders. Duplicate
  // centroids make exact distance ties, which must resolve to the lowest
  // cluster index as in the scalar argmin.
  SimdLevelGuard guard;
  Xoshiro256 rng(7);
  for (const simd::Level level : reachable_levels()) {
    if (level == simd::Level::kOff) continue;
    simd::set_level(level);
    const apps::kernels::KMeansAssignFn assign = apps::kernels::kmeans_assign_fn();
    const apps::kernels::KMeansAccumulateFn accumulate = apps::kernels::kmeans_accumulate_fn();
    ASSERT_NE(assign, nullptr);
    ASSERT_NE(accumulate, nullptr);
    for (int k = 1; k <= 9; ++k) {
      for (int d = 1; d <= 9; ++d) {
        constexpr std::uint64_t kPoints = 64;
        std::vector<double> points(kPoints * d);
        for (double& x : points) x = rng.uniform(-4.0, 4.0);
        std::vector<double> centroids(static_cast<std::size_t>(k) * d);
        for (int c = 0; c < k; ++c) {
          for (int j = 0; j < d; ++j) {
            centroids[c * d + j] = c >= 3 && c % 3 == 0 ? centroids[(c - 3) * d + j]
                                                        : rng.uniform(-4.0, 4.0);
          }
        }
        std::vector<double> centroids_t(centroids.size());
        for (int c = 0; c < k; ++c) {
          for (int j = 0; j < d; ++j) centroids_t[j * k + c] = centroids[c * d + j];
        }
        std::vector<int> membership(kPoints);
        for (std::uint64_t i = 0; i < kPoints; ++i) {
          const double* point = points.data() + i * d;
          int best = 0;
          double best_dist = std::numeric_limits<double>::infinity();
          for (int c = 0; c < k; ++c) {
            double dist = 0;
            for (int j = 0; j < d; ++j) {
              const double diff = point[j] - centroids[c * d + j];
              dist += diff * diff;
            }
            if (dist < best_dist) {
              best_dist = dist;
              best = c;
            }
          }
          ASSERT_EQ(assign(point, centroids_t.data(), d, k), best)
              << simd::level_name(level) << " k=" << k << " d=" << d << " i=" << i;
          membership[i] = i % 5 == 0 ? -1 : best;
        }
        std::vector<double> sums(centroids.size(), 0.0);
        std::vector<std::uint64_t> counts(static_cast<std::size_t>(k), 0);
        for (std::uint64_t i = 0; i < kPoints; ++i) {
          const int c = membership[i];
          if (c < 0) continue;
          ++counts[c];
          for (int j = 0; j < d; ++j) sums[c * d + j] += points[i * d + j];
        }
        std::vector<double> vec_sums(centroids.size(), 0.0);
        std::vector<std::uint64_t> vec_counts(static_cast<std::size_t>(k), 0);
        accumulate(points.data(), membership.data(), kPoints, d, vec_sums.data(),
                   vec_counts.data());
        EXPECT_EQ(vec_counts, counts) << simd::level_name(level) << " k=" << k << " d=" << d;
        EXPECT_EQ(0, std::memcmp(vec_sums.data(), sums.data(), sums.size() * sizeof(double)))
            << simd::level_name(level) << " k=" << k << " d=" << d;
      }
    }
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

/// One full app run at the given dispatch level. Apps resolve their
/// kernels per run(), so flipping the level between runs is enough.
harness::RunOutput run_at_level(const std::string& app_name, const char* clause,
                                simd::Level level) {
  simd::set_level(level);
  auto app = apps::make_benchmark(app_name);
  return app->run(pragma::parse_approx(clause), 8, sim::v100());
}

/// The values' bit patterns: equal vectors mean bit-identical doubles,
/// signed zeros and NaN payloads included, and empty vectors compare equal.
std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

}  // namespace

TEST(SimdParity, AppQoiBitIdenticalAcrossDispatchLevels) {
  SimdLevelGuard guard;
  // The three apps with vector kernels, under both the plain accurate path
  // and the memo techniques that mix approximate answers in. kmeans' QoI
  // is its labels; its iteration count pins the convergence path too.
  for (const char* app : {"blackscholes", "binomial_options", "kmeans"}) {
    for (const char* clause : {"none", "memo(out:3:8:0.5) level(warp)"}) {
      const harness::RunOutput reference = run_at_level(app, clause, simd::Level::kOff);
      for (const simd::Level level : reachable_levels()) {
        if (level == simd::Level::kOff) continue;
        const harness::RunOutput vectored = run_at_level(app, clause, level);
        EXPECT_EQ(bits_of(reference.qoi), bits_of(vectored.qoi))
            << app << " '" << clause << "' at " << simd::level_name(level);
        EXPECT_EQ(reference.qoi_labels, vectored.qoi_labels)
            << app << " '" << clause << "' at " << simd::level_name(level);
        EXPECT_EQ(reference.iterations, vectored.iterations)
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
  for (const char* name : {"blackscholes", "binomial_options", "kmeans", "lavamd"}) {
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
