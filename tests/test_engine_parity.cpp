// Golden-parity tests of the region execution engine.
//
// The engine promises *byte-identical* results across its rewrites and
// across its two execution modes, serial and forced team-parallel.
// `engine_parity_golden.inc` holds two goldens:
//
//  * `kGoldenCsv` — RunRecord CSV rows of all seven apps: four specs on
//    v100 (none, perforation, warp TAF, thread iACT) and two on mi250x
//    (thread TAF, warp iACT), at 8 items per thread. Captured from the
//    engine before its batched-binding rebuild; three TAF rows were
//    re-captured when `TafState::window_rsd` moved to a running sum (see
//    the file's header).
//  * `kRegionPathRows` — one row per executor path on a synthetic region:
//    every perforation pattern herded and not, TAF and iACT at every
//    level, iACT tables-per-warp and clock replacement, and composed
//    perforation over both memoization techniques, on both platforms and
//    two geometries. Each row records every `ExecStats` counter, every
//    `KernelTiming` field (doubles as hexfloat) and an FNV-1a digest of
//    the committed outputs.
//
// Both must be reproduced exactly, doubles and all.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "apps/support.hpp"
#include "approx/region.hpp"
#include "common/fileops.hpp"
#include "harness/explorer.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;

namespace {

#include "engine_parity_golden.inc"

/// The exact configuration grid the golden file was captured with.
const char* kV100Specs[] = {
    "none",
    "perfo(small:4)",
    "memo(out:3:8:0.5) level(warp)",
    "memo(in:4:0.5:2) in(x) out(y)",
};
const char* kMi250xSpecs[] = {
    "memo(out:3:8:0.5)",
    "memo(in:4:0.5:2) level(warp) in(x) out(y)",
};

std::string run_grid_csv() {
  harness::ResultDb db;
  for (const auto& name : apps::benchmark_names()) {
    {
      auto app = apps::make_benchmark(name);
      harness::Explorer explorer(*app, sim::v100());
      for (const char* clause : kV100Specs) {
        explorer.run_config(pragma::parse_approx(clause), 8);
      }
      for (const auto& record : explorer.db().records()) db.add(record);
    }
    {
      auto app = apps::make_benchmark(name);
      harness::Explorer explorer(*app, sim::mi250x());
      for (const char* clause : kMi250xSpecs) {
        explorer.run_config(pragma::parse_approx(clause), 8);
      }
      for (const auto& record : explorer.db().records()) db.add(record);
    }
  }
  std::ostringstream os;
  db.to_csv().write(os);
  return os.str();
}

/// Runs the grid under a tuning default and restores the previous default
/// even on assertion failure.
class TuningGuard {
 public:
  explicit TuningGuard(const approx::ExecTuning& tuning)
      : previous_(approx::RegionExecutor::default_tuning()) {
    approx::RegionExecutor::set_default_tuning(tuning);
  }
  ~TuningGuard() { approx::RegionExecutor::set_default_tuning(previous_); }

 private:
  approx::ExecTuning previous_;
};

// --- per-path golden ------------------------------------------------------

/// Every executor path: `memo` is null for a plain `run`, otherwise the
/// clause is the perforation half of a composed (Figure 2) launch.
struct PathCase {
  const char* clause;
  const char* memo;
};

const PathCase kPathCases[] = {
    {"none", nullptr},
    {"perfo(small:4)", nullptr},
    {"perfo(small:4) herded(0)", nullptr},
    {"perfo(large:4)", nullptr},
    {"perfo(large:4) herded(0)", nullptr},
    {"perfo(ini:0.3)", nullptr},
    {"perfo(ini:0.3) herded(0)", nullptr},
    {"perfo(fini:0.3)", nullptr},
    {"perfo(fini:0.3) herded(0)", nullptr},
    {"memo(out:2:8:0.5)", nullptr},
    {"memo(out:2:8:0.5) level(warp)", nullptr},
    {"memo(out:2:8:0.5) level(team)", nullptr},
    {"memo(in:4:0.5:1) in(x) out(y)", nullptr},
    {"memo(in:4:0.5:2) in(x) out(y)", nullptr},
    {"memo(in:4:0.5) in(x) out(y)", nullptr},
    {"memo(in:4:0.5:1) level(warp) in(x) out(y)", nullptr},
    {"memo(in:4:0.5:2) level(warp) in(x) out(y)", nullptr},
    {"memo(in:4:0.5) level(warp) in(x) out(y)", nullptr},
    {"memo(in:4:0.5:1) level(team) in(x) out(y)", nullptr},
    {"memo(in:4:0.5:2) level(team) in(x) out(y)", nullptr},
    {"memo(in:4:0.5) level(team) in(x) out(y)", nullptr},
    {"memo(in:4:0.5:2) replacement(clock) in(x) out(y)", nullptr},
    {"perfo(small:4)", "memo(out:2:8:0.5)"},
    {"perfo(small:4) herded(0)", "memo(out:2:8:0.5)"},
    {"perfo(ini:0.3)", "memo(out:2:8:0.5)"},
    {"perfo(small:4)", "memo(in:4:0.5:2) in(x) out(y)"},
    {"perfo(small:4) herded(0)", "memo(in:4:0.5:2) in(x) out(y)"},
    {"perfo(ini:0.3)", "memo(in:4:0.5:2) in(x) out(y)"},
};

/// Two geometries: one item per thread over a prime n (partial last team
/// and warp), and 16 items per thread (a long grid-stride walk).
struct Geometry {
  std::uint64_t n;
  std::uint64_t items_per_thread;
};
const Geometry kGeometries[] = {{10007, 1}, {10007, 16}};

/// Runtime costs that are not whole numbers, so that reordering any two of
/// a warp's charges, not only those of the region's cost, changes its bits.
approx::RuntimeCosts fractional_costs() {
  approx::RuntimeCosts costs;
  costs.activation_check = 2.1;
  costs.taf_record_per_value = 3.3;
  costs.taf_predict_per_value = 2.2;
  costs.iact_distance_per_dim = 3.1;
  costs.iact_sqrt = 8.3;
  costs.iact_insert_per_value = 2.05;
  costs.ballot = 4.2;
  costs.barrier = 20.7;
  costs.atomic_add = 10.1;
  costs.perfo_check = 2.3;
  return costs;
}

/// A two-input, two-output region with stretches of stable and of varying
/// outputs (so TAF both enters and leaves its stable regime), repeating
/// inputs (so iACT both hits and misses) and a data-dependent cost that is
/// not a whole number.
struct PathRegion {
  std::vector<double> out;

  approx::RegionBinding binding(std::uint64_t n) {
    out.assign(2 * n, -1.0);
    approx::RegionBinding b;
    b.name = "region_paths";
    b.in_dims = 2;
    b.out_dims = 2;
    apps::bind_gather(b, [](std::uint64_t i, double* in) {
      in[0] = 0.5 * static_cast<double>(i % 8);
      in[1] = 0.25 * static_cast<double>((i / 3) % 4);
    });
    apps::bind_accurate(b, [](std::uint64_t i, double* o) {
      const double x0 = 0.5 * static_cast<double>(i % 8);
      const double x1 = 0.25 * static_cast<double>((i / 3) % 4);
      const double wobble = (i / 2048) % 2 == 0 ? 0.0 : 0.01 * std::sin(static_cast<double>(i));
      o[0] = 5.0 + 0.001 * x1 + wobble;
      o[1] = x0 * x1 + 1.0;
    });
    b.accurate_cost_batch = [](std::uint64_t first_item, sim::LaneMask lanes) {
      double worst = 0;
      sim::for_each_lane(lanes, [&](int lane) {
        const auto item = first_item + static_cast<std::uint64_t>(lane);
        worst = std::max(worst, 41.3 + 9.7 * static_cast<double>(item % 5));
      });
      return worst;
    };
    apps::bind_commit(b, [this](std::uint64_t i, const double* o) {
      out[2 * i] = o[0];
      out[2 * i + 1] = o[1];
    });
    b.in_bytes = 16;
    b.out_bytes = 16;
    b.independent_items = true;  // commits touch only out[2i], out[2i+1]
    return b;
  }
};

std::string path_row(const char* device, const Geometry& geometry, const PathCase& path_case,
                     const approx::RegionReport& report, const std::vector<double>& out) {
  const approx::ExecStats& st = report.stats;
  const sim::KernelTiming& t = report.timing;
  const std::string_view bytes(reinterpret_cast<const char*>(out.data()),
                               out.size() * sizeof(double));
  std::string label = path_case.clause;
  if (path_case.memo != nullptr) label += std::string(" + ") + path_case.memo;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s ipt=%llu %s | inv=%llu acc=%llu apx=%llu skip=%llu fapx=%llu facc=%llu "
                "hits=%llu stable=%llu shm=%zu | s=%a cp=%a occ=%a rb=%d tx=%llu div=%llu "
                "cc=%a | out=%s",
                device, static_cast<unsigned long long>(geometry.items_per_thread),
                label.c_str(), static_cast<unsigned long long>(st.region_invocations),
                static_cast<unsigned long long>(st.accurate_items),
                static_cast<unsigned long long>(st.approx_items),
                static_cast<unsigned long long>(st.skipped_items),
                static_cast<unsigned long long>(st.forced_approx),
                static_cast<unsigned long long>(st.forced_accurate),
                static_cast<unsigned long long>(st.iact_hits),
                static_cast<unsigned long long>(st.taf_stable_entries),
                st.shared_bytes_per_block, t.seconds, t.critical_path_cycles, t.occupancy,
                t.resident_blocks_per_sm, static_cast<unsigned long long>(t.total_transactions),
                static_cast<unsigned long long>(t.divergent_regions), t.compute_cycles_total,
                fileops::hex16(fileops::fnv1a64(bytes)).c_str());
  return buf;
}

std::vector<std::string> run_region_paths(const approx::ExecTuning& tuning) {
  std::vector<std::string> rows;
  const std::pair<const char*, sim::DeviceConfig> devices[] = {{"v100", sim::v100()},
                                                               {"mi250x", sim::mi250x()}};
  for (const auto& [device_name, platform] : devices) {
    sim::DeviceConfig device = platform;
    device.shared_mem_access_cycles = 1.3;
    approx::RegionExecutor executor(device, fractional_costs());
    executor.set_tuning(tuning);
    for (const Geometry& geometry : kGeometries) {
      const sim::LaunchConfig launch =
          sim::launch_for_items_per_thread(geometry.n, geometry.items_per_thread, 128);
      for (const PathCase& path_case : kPathCases) {
        PathRegion region;
        const approx::RegionBinding binding = region.binding(geometry.n);
        const pragma::ApproxSpec spec = pragma::parse_approx(path_case.clause);
        const approx::RegionReport report =
            path_case.memo == nullptr
                ? executor.run(spec, binding, geometry.n, launch)
                : executor.run_composed(spec, pragma::parse_approx(path_case.memo), binding,
                                        geometry.n, launch);
        const approx::ExecStats& st = report.stats;
        EXPECT_EQ(st.accurate_items + st.approx_items + st.skipped_items,
                  st.region_invocations)
            << device_name << " " << path_case.clause;
        EXPECT_EQ(st.region_invocations, geometry.n) << device_name << " " << path_case.clause;
        rows.push_back(path_row(device_name, geometry, path_case, report, region.out));
      }
    }
  }
  return rows;
}

approx::ExecTuning serial_tuning() {
  approx::ExecTuning tuning;
  tuning.max_threads = 1;
  return tuning;
}

approx::ExecTuning forced_shard_tuning() {
  approx::ExecTuning tuning;
  tuning.max_threads = 4;  // force sharding even on small launches
  tuning.min_items = 0;
  return tuning;
}

}  // namespace

TEST(EngineParity, BatchedBindingsMatchPreRefactorGolden) {
  TuningGuard guard(serial_tuning());
  EXPECT_EQ(run_grid_csv(), kGoldenCsv);
}

TEST(EngineParity, TeamParallelMatchesPreRefactorGolden) {
  TuningGuard guard(forced_shard_tuning());
  EXPECT_EQ(run_grid_csv(), kGoldenCsv);
}

TEST(EngineParity, RegionPathsMatchGolden) {
  for (const approx::ExecTuning& tuning : {serial_tuning(), forced_shard_tuning()}) {
    const std::vector<std::string> rows = run_region_paths(tuning);
    ASSERT_EQ(rows.size(), std::size(kRegionPathRows));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i], kRegionPathRows[i]) << "max_threads=" << tuning.max_threads;
    }
  }
}
