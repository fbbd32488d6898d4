// Golden-parity tests of the rebuilt region execution engine.
//
// The engine rebuild (FunctionRef dispatch, batched bindings, O(1) active
// masks, AC-state reuse, team-sharded parallelism) promises
// *byte-identical* results to the pre-refactor serial engine. These tests
// hold it to that: `engine_parity_golden.inc` embeds RunRecord CSV rows
// produced by the pre-refactor engine for all seven apps under all four
// techniques on both platforms, and both engine paths — serial and forced
// team-parallel execution of the batched bindings — must reproduce them
// exactly, doubles and all.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/registry.hpp"
#include "approx/region.hpp"
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

}  // namespace

TEST(EngineParity, BatchedBindingsMatchPreRefactorGolden) {
  approx::ExecTuning tuning;
  tuning.max_threads = 1;  // serial engine
  TuningGuard guard(tuning);
  EXPECT_EQ(run_grid_csv(), kGoldenCsv);
}

TEST(EngineParity, TeamParallelMatchesPreRefactorGolden) {
  approx::ExecTuning tuning;
  tuning.max_threads = 4;  // force sharding even on small launches
  tuning.min_teams = 1;
  tuning.min_items = 0;
  tuning.min_teams_per_shard = 1;
  TuningGuard guard(tuning);
  EXPECT_EQ(run_grid_csv(), kGoldenCsv);
}
