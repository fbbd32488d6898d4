// Tests for the commit-conflict auditor (hpac::approx::audit): the layer
// that validates `independent_items` declarations at runtime instead of
// trusting them, by checking every item's declared extents. Coverage:
//   * every registered app passes audit_mode=enforce (with differential
//     re-runs) across TAF / iACT / perforation on both device presets,
//     one test entry per app and device;
//   * the deliberately mislabeled fixture is detected in report and
//     enforce modes, serially and under launch sharding (the sharded cases
//     run under ThreadSanitizer in CI — the fixture commits through
//     relaxed atomics so the only races left are semantic ones);
//   * the differential re-run catches hidden read-side dependence that
//     the declaration does not state, at every items-per-thread point
//     (one-team launches included), and restores application state so
//     auditing never changes results;
//   * report determinism, missing-extents handling, off-mode inertness,
//     the verbatim enforce-mode error texts, which reports survive the cap;
//   * findings do not depend on the technique: items iACT approximates
//     or perforation skips are checked like the rest, serially and
//     sharded, with and without the differential pass;
//   * the row proof agrees with the walk: seeded random row sets (negative
//     and zero strides, item ranges, overlapping rows) give the same
//     findings and committed bytes with the proof on and off, and so do a
//     reversed row, ping-pong rows re-declared between launches and rows
//     whose items overlap;
//   * every app's audited records equal its unaudited ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "approx/audit.hpp"
#include "approx/region.hpp"
#include "apps/registry.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "harness/campaign.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "mislabeled_fixture.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"

namespace {

using namespace hpac;
using approx::audit::AuditMode;
using approx::audit::ConflictReport;
using testing_fixture = hpac::testing::MislabeledBenchmark;
using hpac::testing::Flaw;

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

approx::ExecTuning serial_audit(AuditMode mode, bool differential) {
  approx::ExecTuning tuning;
  tuning.max_threads = 1;
  tuning.audit_mode = mode;
  tuning.audit_differential = differential;
  return tuning;
}

approx::ExecTuning sharded_audit(AuditMode mode, bool differential) {
  approx::ExecTuning tuning;
  tuning.max_threads = 4;
  tuning.min_items = 0;
  tuning.audit_mode = mode;
  tuning.audit_differential = differential;
  return tuning;
}

harness::RunOutput run_fixture(Flaw flaw, const approx::ExecTuning& tuning,
                              std::uint64_t items_per_thread = 8) {
  TuningGuard guard(tuning);
  testing_fixture bench(flaw);
  return bench.run(pragma::ApproxSpec{}, items_per_thread, sim::v100());
}

bool has_kind(const std::vector<ConflictReport>& conflicts, ConflictReport::Kind kind) {
  for (const auto& c : conflicts) {
    if (c.kind == kind) return true;
  }
  return false;
}

std::vector<std::string> texts_of(const std::vector<ConflictReport>& conflicts) {
  std::vector<std::string> texts;
  for (const auto& c : conflicts) texts.push_back(c.to_string());
  return texts;
}

/// A record as its CSV row.
std::string row_text(const harness::RunRecord& record) {
  std::ostringstream os;
  write_csv_row(os, record.to_row());
  return os.str();
}

/// An iACT-capable region (one gathered input) whose items 0, 64, 256
/// and 320 declare a read of the next item's committed cell: four
/// read/write findings. At ipt 4 (128 threads, four grid-stride steps)
/// they all lie in steps 0 and 2, which `perfo(small:2)` keeps. Every
/// item gathers the same input, so under `memo(in:...)` step 0 misses the
/// empty tables and every later lane is approximated: items 0 and 64 run
/// the accurate path, items 256 and 320 do not. Report offsets are
/// measured from every item's declared extents, so both techniques give
/// the same texts with or without the differential pass, although
/// perforation leaves a gap in the logged writes.
struct NeighborReadRegion {
  static constexpr std::uint64_t kItems = 512;
  std::vector<double> cells = std::vector<double>(kItems, 0.0);
  std::vector<char> ran_accurate = std::vector<char>(kItems, 0);

  approx::RegionBinding binding() {
    approx::RegionBinding b;
    b.name = "audit.iact_reads";
    b.in_dims = 1;
    b.out_dims = 1;
    apps::bind_gather(b, [](std::uint64_t, double* in) { in[0] = 1.0; });
    apps::bind_accurate(b, [this](std::uint64_t i, double* o) {
      ran_accurate[i] = 1;
      o[0] = 1.0;
    });
    apps::bind_constant_cost(b, 50.0);
    apps::bind_commit(b, [this](std::uint64_t i, const double* o) { cells[i] = o[0]; });
    b.independent_items = true;  // a false claim, as the declared reads below show
    b.commit_extents = {approx::audit::dense(cells.data())};
    for (const std::uint64_t i : {0u, 64u, 256u, 320u}) {
      b.read_extents.push_back(
          {.ptr = cells.data() + i + 1, .len = sizeof(double), .first = i, .last = i + 1});
    }
    return b;
  }

  /// The findings of one audited launch of `clause`.
  std::vector<ConflictReport> run(const std::string& clause, const approx::ExecTuning& tuning,
                                  std::size_t* host_shards = nullptr) {
    cells.assign(kItems, 0.0);
    ran_accurate.assign(kItems, 0);
    approx::RegionExecutor executor(sim::v100());
    executor.set_tuning(tuning);
    const approx::RegionReport report =
        executor.run(pragma::parse_approx(clause), binding(), kItems,
                     sim::launch_for_items_per_thread(kItems, 4, 32));
    if (host_shards != nullptr) *host_shards = report.stats.host_shards;
    return report.stats.conflicts;
  }
};

/// The four findings of NeighborReadRegion, each exactly once.
const std::vector<std::string> kNeighborReadFindings = {
    "read/write overlap: items 0 and 1, bytes [8,16) of 'audit.iact_reads'",
    "read/write overlap: items 64 and 65, bytes [520,528) of 'audit.iact_reads'",
    "read/write overlap: items 256 and 257, bytes [2056,2064) of 'audit.iact_reads'",
    "read/write overlap: items 320 and 321, bytes [2568,2576) of 'audit.iact_reads'",
};

TEST(AuditMode_, NamesRoundTrip) {
  for (const AuditMode mode : {AuditMode::kOff, AuditMode::kReport, AuditMode::kEnforce}) {
    const auto parsed = approx::audit::audit_mode_from_string(approx::audit::to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(approx::audit::audit_mode_from_string("verify").has_value());
}

TEST(Audit, OffModeTrustsTheDeclaration) {
  const harness::RunOutput output =
      run_fixture(Flaw::kSharedCell, serial_audit(AuditMode::kOff, false));
  EXPECT_TRUE(output.stats.conflicts.empty());
}

TEST(Audit, HonestFixturePassesEnforceWithDifferential) {
  const harness::RunOutput output =
      run_fixture(Flaw::kNone, serial_audit(AuditMode::kEnforce, true));
  EXPECT_TRUE(output.stats.conflicts.empty());
}

TEST(Audit, SharedCellReportedSerially) {
  const harness::RunOutput output =
      run_fixture(Flaw::kSharedCell, serial_audit(AuditMode::kReport, false));
  ASSERT_FALSE(output.stats.conflicts.empty());
  const ConflictReport& first = output.stats.conflicts.front();
  EXPECT_EQ(first.kind, ConflictReport::Kind::kWriteWrite);
  EXPECT_EQ(first.binding, "fixture.mislabeled");
  // Reports come out in address order: the lowest shared cell belongs to
  // items 0 and 1, and offsets are relative so the range is stable.
  EXPECT_EQ(first.item_a, 0u);
  EXPECT_EQ(first.item_b, 1u);
  EXPECT_EQ(first.begin, 0u);
  EXPECT_EQ(first.end, sizeof(double));
  EXPECT_NE(first.to_string().find("write/write overlap"), std::string::npos);
}

TEST(Audit, SharedCellEnforceThrowsConfigError) {
  TuningGuard guard(serial_audit(AuditMode::kEnforce, false));
  testing_fixture bench(Flaw::kSharedCell);
  try {
    bench.run(pragma::ApproxSpec{}, bench.default_items_per_thread(), sim::v100());
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("commit-conflict"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("fixture.mislabeled"), std::string::npos);
  }
}

TEST(Audit, ReportsAreDeterministicAcrossRepeats) {
  const auto once = [] {
    return texts_of(
        run_fixture(Flaw::kSharedCell, serial_audit(AuditMode::kReport, false)).stats.conflicts);
  };
  const std::vector<std::string> a = once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, once());
}

TEST(Audit, DeclaredReadNeighborCaughtByAddressTagging) {
  // The read-side dependence is declared via read_extents, so the static
  // read/write sweep finds it — no differential re-run needed.
  const harness::RunOutput output =
      run_fixture(Flaw::kDeclaredReadNeighbor, serial_audit(AuditMode::kReport, false));
  ASSERT_FALSE(output.stats.conflicts.empty());
  EXPECT_TRUE(has_kind(output.stats.conflicts, ConflictReport::Kind::kReadWrite));
}

TEST(Audit, HiddenReadNeighborInvisibleToAddressTaggingAlone) {
  const harness::RunOutput output =
      run_fixture(Flaw::kHiddenReadNeighbor, serial_audit(AuditMode::kReport, false));
  EXPECT_TRUE(output.stats.conflicts.empty());
}

TEST(Audit, HiddenReadNeighborCaughtByDifferential) {
  // At ipt 128 the fixture's 16,384 items make one team of 128 threads,
  // which the live launch shards by warp. The reversed re-run must cut
  // the same units, not teams, or it replays the live order and sees
  // nothing. Each ipt fills the report cap.
  for (const std::uint64_t ipt : {8u, 32u, 128u}) {
    const harness::RunOutput output =
        run_fixture(Flaw::kHiddenReadNeighbor, serial_audit(AuditMode::kReport, true), ipt);
    EXPECT_EQ(output.stats.conflicts.size(), 8u) << "ipt " << ipt;
    EXPECT_TRUE(has_kind(output.stats.conflicts, ConflictReport::Kind::kDifferential))
        << "ipt " << ipt;
  }
}

TEST(Audit, DifferentialRestoresApplicationState) {
  // Auditing must never change what the application computes: committed
  // bytes after an audited run (including the differential re-execution
  // and its restores) equal the un-audited run's bytes exactly.
  const harness::RunOutput plain =
      run_fixture(Flaw::kHiddenReadNeighbor, serial_audit(AuditMode::kOff, false));
  const harness::RunOutput audited =
      run_fixture(Flaw::kHiddenReadNeighbor, serial_audit(AuditMode::kReport, true));
  EXPECT_EQ(plain.qoi, audited.qoi);
}

TEST(Audit, MissingExtentsEnforceThrows) {
  TuningGuard guard(serial_audit(AuditMode::kEnforce, false));
  testing_fixture bench(Flaw::kUndeclaredExtents);
  EXPECT_THROW(bench.run(pragma::ApproxSpec{}, bench.default_items_per_thread(), sim::v100()),
               ConfigError);
}

TEST(Audit, MissingExtentsReportFlags) {
  const harness::RunOutput output =
      run_fixture(Flaw::kUndeclaredExtents, serial_audit(AuditMode::kReport, false));
  ASSERT_EQ(output.stats.conflicts.size(), 1u);
  EXPECT_EQ(output.stats.conflicts.front().kind, ConflictReport::Kind::kMissingExtents);
}

TEST(Audit, EnforceErrorTextsAreVerbatim) {
  // Both texts land verbatim in record notes, so they are pinned byte for
  // byte. Items 2k and 2k+1 commit the same cell.
  std::vector<double> cells(64, -1.0);
  std::uint64_t commits = 0;
  approx::RegionBinding binding;
  binding.name = "audit.text";
  apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  apps::bind_constant_cost(binding, 16.0);
  apps::bind_commit(binding, [&](std::uint64_t i, const double* o) {
    ++commits;
    cells[i / 2] = o[0];
  });
  binding.independent_items = true;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(serial_audit(AuditMode::kEnforce, false));
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(cells.size(), 1, 32);
  const auto message = [&] {
    try {
      executor.run(pragma::parse_approx("none"), binding, cells.size(), launch);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("no ConfigError");
  };

  // Without commit_extents the launch throws before any item commits.
  EXPECT_EQ(message(),
            "config error: commit-conflict audit: binding 'audit.text' declares "
            "independent_items but no commit_extents; the claim cannot be verified");
  EXPECT_EQ(commits, 0u);
  EXPECT_EQ(cells, std::vector<double>(64, -1.0));

  for (std::uint64_t i = 0; i < cells.size(); ++i) {
    binding.commit_extents.push_back(
        {.ptr = cells.data() + i / 2, .len = sizeof(double), .first = i, .last = i + 1});
  }
  EXPECT_EQ(message(),
            "config error: commit-conflict audit failed for binding 'audit.text': "
            "write/write overlap: items 0 and 1, bytes [0,8) of 'audit.text'; "
            "write/write overlap: items 2 and 3, bytes [8,16) of 'audit.text'; "
            "write/write overlap: items 4 and 5, bytes [16,24) of 'audit.text' (+5 more)");
  EXPECT_EQ(commits, cells.size());
}

TEST(Audit, ReportCapKeepsWriteWriteFirstInAddressOrder) {
  // 15 findings, more than the cap of 8: odd items 21, 23 and 25 also
  // write their left neighbour's cell (3 write/write overlaps, at high
  // addresses), and items 0..11 read their right neighbour's cell (12
  // read/write overlaps, at low addresses). The survivors are every
  // write/write finding, then the lowest read/write ones.
  std::vector<double> cells(32, 0.0);
  approx::RegionBinding binding;
  binding.name = "audit.cap";
  apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  apps::bind_constant_cost(binding, 16.0);
  apps::bind_commit(binding, [&cells](std::uint64_t i, const double* o) { cells[i] = o[0]; });
  binding.independent_items = true;
  binding.commit_extents = {approx::audit::dense(cells.data())};
  for (const std::uint64_t i : {21u, 23u, 25u}) {
    binding.commit_extents.push_back(
        {.ptr = cells.data() + i - 1, .len = sizeof(double), .first = i, .last = i + 1});
  }
  binding.read_extents = {{.ptr = cells.data() + 1,
                           .stride = sizeof(double),
                           .len = sizeof(double),
                           .last = 12}};
  approx::RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(cells.size(), 1, 32);

  executor.set_tuning(serial_audit(AuditMode::kReport, false));
  const std::vector<ConflictReport> conflicts =
      executor.run(pragma::parse_approx("none"), binding, cells.size(), launch).stats.conflicts;
  EXPECT_EQ(texts_of(conflicts),
            (std::vector<std::string>{
                "write/write overlap: items 20 and 21, bytes [160,168) of 'audit.cap'",
                "write/write overlap: items 22 and 23, bytes [176,184) of 'audit.cap'",
                "write/write overlap: items 24 and 25, bytes [192,200) of 'audit.cap'",
                "read/write overlap: items 0 and 1, bytes [8,16) of 'audit.cap'",
                "read/write overlap: items 1 and 2, bytes [16,24) of 'audit.cap'",
                "read/write overlap: items 2 and 3, bytes [24,32) of 'audit.cap'",
                "read/write overlap: items 3 and 4, bytes [32,40) of 'audit.cap'",
                "read/write overlap: items 4 and 5, bytes [40,48) of 'audit.cap'",
            }));

  executor.set_tuning(serial_audit(AuditMode::kEnforce, false));
  try {
    executor.run(pragma::parse_approx("none"), binding, cells.size(), launch);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "config error: commit-conflict audit failed for binding 'audit.cap': "
              "write/write overlap: items 20 and 21, bytes [160,168) of 'audit.cap'; "
              "write/write overlap: items 22 and 23, bytes [176,184) of 'audit.cap'; "
              "write/write overlap: items 24 and 25, bytes [192,200) of 'audit.cap' (+5 more)");
  }
}

TEST(Audit, IactLogsEachDeclaredReadOnce) {
  // Under iACT items 256 and 320 are approximated and never run the
  // accurate path; their declared reads are checked all the same, and
  // each finding is reported once.
  NeighborReadRegion region;
  const approx::ExecTuning tuning = serial_audit(AuditMode::kReport, true);
  EXPECT_EQ(texts_of(region.run("memo(in:8:0.5) in(x) out(y)", tuning)), kNeighborReadFindings);
  EXPECT_TRUE(region.ran_accurate[0] && region.ran_accurate[64]);
  EXPECT_FALSE(region.ran_accurate[256] || region.ran_accurate[320]);
  EXPECT_EQ(texts_of(region.run("perfo(small:2)", tuning)), kNeighborReadFindings);
}

TEST(Audit, ReportOffsetsIgnoreSkippedItemsWithoutDifferential) {
  // Perforation skips grid-stride steps 1 and 3, whose items commit
  // nothing. The offsets must not move: items 256/257 still read bytes
  // [2056,2064) of the declared run, not [8,16).
  NeighborReadRegion region;
  const approx::ExecTuning tuning = serial_audit(AuditMode::kReport, false);
  for (const char* clause : {"perfo(small:2)", "memo(in:8:0.5) in(x) out(y)"}) {
    EXPECT_EQ(texts_of(region.run(clause, tuning)), kNeighborReadFindings) << clause;
  }
}

TEST(Audit, FindingsInPerforatedStepsMatchNone) {
  // At ipt 4 (128 threads over 4 teams of 32, four grid-stride steps)
  // perfo(small:2) skips steps 1 and 3, items 128..255 and 384..511. The
  // binding's only false claims lie there: item 160 also writes item
  // 161's cell, and item 200 declares a read of item 201's cell. The
  // check covers every item's declaration, so the perforated launch
  // reports them exactly as the accurate one does.
  constexpr std::uint64_t kItems = 512;
  std::vector<double> cells(kItems, 0.0);
  approx::RegionBinding binding;
  binding.name = "audit.skipped";
  apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  apps::bind_constant_cost(binding, 16.0);
  apps::bind_commit(binding, [&cells](std::uint64_t i, const double* o) {
    cells[i] = o[0];
    if (i == 160) cells[161] = o[0];
  });
  binding.independent_items = true;
  binding.commit_extents = {
      approx::audit::dense(cells.data()),
      {.ptr = cells.data() + 161, .len = sizeof(double), .first = 160, .last = 161}};
  binding.read_extents = {
      {.ptr = cells.data() + 201, .len = sizeof(double), .first = 200, .last = 201}};
  const std::vector<std::string> expected = {
      "write/write overlap: items 160 and 161, bytes [1288,1296) of 'audit.skipped'",
      "read/write overlap: items 200 and 201, bytes [1608,1616) of 'audit.skipped'",
  };
  approx::RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(kItems, 4, 32);
  for (const bool differential : {false, true}) {
    executor.set_tuning(serial_audit(AuditMode::kReport, differential));
    for (const char* clause : {"none", "perfo(small:2)"}) {
      const approx::RegionReport report =
          executor.run(pragma::parse_approx(clause), binding, kItems, launch);
      EXPECT_EQ(texts_of(report.stats.conflicts), expected)
          << clause << (differential ? " with" : " without") << " differential";
    }
  }
}

// --- sharded detection (runs under TSan in CI) ------------------------------

TEST(AuditSharded, IactLogsEachDeclaredReadOnce) {
  NeighborReadRegion region;
  const approx::ExecTuning tuning = sharded_audit(AuditMode::kReport, true);
  for (const char* clause : {"memo(in:8:0.5) in(x) out(y)", "perfo(small:2)"}) {
    std::size_t shards = 0;
    EXPECT_EQ(texts_of(region.run(clause, tuning, &shards)), kNeighborReadFindings) << clause;
    EXPECT_GT(shards, 1u) << clause;
  }
}

TEST(AuditSharded, SharedCellReportedUnderTeamSharding) {
  const harness::RunOutput output =
      run_fixture(Flaw::kSharedCell, sharded_audit(AuditMode::kReport, false));
  EXPECT_GT(output.stats.host_shards, 1u);
  ASSERT_FALSE(output.stats.conflicts.empty());
  EXPECT_TRUE(has_kind(output.stats.conflicts, ConflictReport::Kind::kWriteWrite));
  // The folded interval multiset is decomposition-independent, so the
  // sharded findings match the serial ones exactly.
  const harness::RunOutput serial =
      run_fixture(Flaw::kSharedCell, serial_audit(AuditMode::kReport, false));
  ASSERT_EQ(output.stats.conflicts.size(), serial.stats.conflicts.size());
  for (std::size_t i = 0; i < serial.stats.conflicts.size(); ++i) {
    EXPECT_EQ(output.stats.conflicts[i].to_string(), serial.stats.conflicts[i].to_string());
  }
}

TEST(AuditSharded, SharedCellEnforceThrowsUnderTeamSharding) {
  TuningGuard guard(sharded_audit(AuditMode::kEnforce, false));
  testing_fixture bench(Flaw::kSharedCell);
  EXPECT_THROW(bench.run(pragma::ApproxSpec{}, bench.default_items_per_thread(), sim::v100()),
               ConfigError);
}

TEST(AuditSharded, HonestFixturePassesShardedEnforceWithDifferential) {
  const harness::RunOutput output =
      run_fixture(Flaw::kNone, sharded_audit(AuditMode::kEnforce, true));
  EXPECT_TRUE(output.stats.conflicts.empty());
}

// --- harness integration -----------------------------------------------------

TEST(AuditHarness, ExplorerAnnotatesReportModeRecords) {
  TuningGuard guard(serial_audit(AuditMode::kReport, false));
  testing_fixture bench(Flaw::kSharedCell);
  harness::Explorer explorer(bench, sim::v100());
  const harness::RunRecord record = explorer.run_config(pragma::parse_approx("perfo(small:2)"),
                                                        bench.default_items_per_thread());
  EXPECT_TRUE(record.feasible);
  EXPECT_NE(record.note.find("commit-conflict"), std::string::npos);
}

TEST(AuditHarness, ExplorerEnforceFailsFastAtTheBaseline) {
  // The accurate baseline run is audited too, and its ConfigError is not
  // swallowed into a record: a binding whose independence claim is false
  // invalidates the whole exploration, not one configuration.
  TuningGuard guard(serial_audit(AuditMode::kEnforce, false));
  testing_fixture bench(Flaw::kSharedCell);
  harness::Explorer explorer(bench, sim::v100());
  EXPECT_THROW(explorer.baseline(), ConfigError);
}

TEST(AuditHarness, ExplorerMarksEnforceModeRecordsInfeasible) {
  testing_fixture bench(Flaw::kSharedCell);
  harness::Explorer explorer(bench, sim::v100());
  {
    // Baseline under report mode (observes, does not veto) ...
    TuningGuard report(serial_audit(AuditMode::kReport, false));
    explorer.baseline();
  }
  // ... then the audited configuration under enforce: the ConfigError is
  // caught per-record, exactly like any other infeasible configuration.
  TuningGuard guard(serial_audit(AuditMode::kEnforce, false));
  const harness::RunRecord record = explorer.run_config(pragma::parse_approx("perfo(small:2)"),
                                                        bench.default_items_per_thread());
  EXPECT_FALSE(record.feasible);
  EXPECT_NE(record.note.find("commit-conflict"), std::string::npos);
}

TEST(AuditHarness, CampaignCountsCleanEnforceRunAsZeroFlagged) {
  TuningGuard guard(serial_audit(AuditMode::kEnforce, true));
  harness::CampaignPlan plan;
  plan.benchmarks = {"blackscholes"};
  plan.devices = {"v100"};
  plan.items_per_thread = {8};
  plan.num_threads = 1;
  plan.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{pragma::parse_approx("perfo(small:2)")};
  };
  const harness::CampaignResult result = harness::Campaign(plan).run();
  EXPECT_EQ(result.evaluated, 1u);
  EXPECT_EQ(result.feasible, 1u);
  EXPECT_EQ(result.audit_flagged, 0u);
}

// --- the row proof against the walk -----------------------------------------

/// The proof (`audit_extent_cache = true`) and the walk (`false`) in
/// report mode, optionally with the differential pass.
approx::ExecTuning proof_tuning(bool prove, bool differential) {
  approx::ExecTuning tuning = serial_audit(AuditMode::kReport, differential);
  tuning.audit_extent_cache = prove;
  return tuning;
}

/// One declared row of a RowRegion, placed by buffer and byte offset.
struct RowSpec {
  std::size_t buffer = 0;
  std::ptrdiff_t offset = 0;  ///< of item `first`'s bytes
  std::ptrdiff_t stride = 0;
  std::size_t len = 0;
  std::uint64_t first = 0;
  std::uint64_t last = approx::audit::Extent::kAllItems;
  bool commuting = false;
};

/// A region over two byte buffers whose declaration is a list of rows.
/// Item i's accurate path sums the bytes of its declared reads and of its
/// hidden (undeclared) reads; its commit stores that sum's low byte over
/// its bytes of every exclusive row, and adds one to its bytes of every
/// commuting row. The commits write exactly the declared bytes, so a set
/// whose rows overlap across items is a false `independent_items` claim
/// the audit must report, and a hidden read is one only the differential
/// pass can see.
struct RowRegion {
  static constexpr std::size_t kBufferBytes = 12 * 1024;
  std::uint64_t n = 0;
  std::vector<RowSpec> commits, reads, hidden;
  std::vector<std::vector<unsigned char>> buffers =
      std::vector<std::vector<unsigned char>>(2, std::vector<unsigned char>(kBufferBytes));

  /// Item i's bytes of `row`, or null when the row does not cover i.
  unsigned char* bytes_of(const RowSpec& row, std::uint64_t i) {
    if (i < row.first || i >= std::min(row.last, n)) return nullptr;
    return buffers[row.buffer].data() + row.offset +
           static_cast<std::ptrdiff_t>(i - row.first) * row.stride;
  }

  std::vector<approx::audit::Extent> extents(const std::vector<RowSpec>& rows) {
    std::vector<approx::audit::Extent> out;
    for (const RowSpec& row : rows) {
      out.push_back({.ptr = buffers[row.buffer].data() + row.offset,
                     .stride = row.stride,
                     .len = row.len,
                     .first = row.first,
                     .last = row.last,
                     .commuting = row.commuting});
    }
    return out;
  }

  approx::RegionBinding binding() {
    approx::RegionBinding b;
    b.name = "audit.rows";
    apps::bind_accurate(b, [this](std::uint64_t i, double* o) {
      unsigned sum = static_cast<unsigned>(i) * 31u;
      for (const auto* rows : {&reads, &hidden}) {
        for (const RowSpec& row : *rows) {
          if (const unsigned char* p = bytes_of(row, i)) {
            for (std::size_t k = 0; k < row.len; ++k) sum += p[k];
          }
        }
      }
      o[0] = static_cast<double>(sum & 0xffu);
    });
    apps::bind_constant_cost(b, 16.0);
    apps::bind_commit(b, [this](std::uint64_t i, const double* o) {
      for (const RowSpec& row : commits) {
        unsigned char* p = bytes_of(row, i);
        if (p == nullptr) continue;
        for (std::size_t k = 0; k < row.len; ++k) {
          p[k] = row.commuting ? static_cast<unsigned char>(p[k] + 1)
                               : static_cast<unsigned char>(o[0]);
        }
      }
    });
    b.independent_items = true;  // the claim under test
    b.commit_extents = extents(commits);
    b.read_extents = extents(reads);
    return b;
  }

  /// Findings and final buffer bytes of one launch from a fixed initial
  /// image.
  struct Outcome {
    std::vector<std::string> texts;
    std::vector<std::vector<unsigned char>> bytes;
  };
  Outcome run(const approx::ExecTuning& tuning, std::uint64_t items_per_thread) {
    for (auto& buffer : buffers) {
      for (std::size_t k = 0; k < buffer.size(); ++k) buffer[k] = static_cast<unsigned char>(k * 7);
    }
    approx::RegionExecutor executor(sim::v100());
    executor.set_tuning(tuning);
    const approx::RegionReport report =
        executor.run(pragma::parse_approx("none"), binding(), n,
                     sim::launch_for_items_per_thread(n, items_per_thread, 32));
    return Outcome{texts_of(report.stats.conflicts), buffers};
  }
};

/// A random row for a launch of `n` items, placed inside one buffer.
/// Half the rows reuse `family_stride` (when it fits their length), so
/// equal-stride pairs whose hulls overlap are common, and half are
/// packed into the buffer's first bytes, so overlapping hulls are too.
RowSpec random_row(Xoshiro256& rng, std::uint64_t n, std::ptrdiff_t family_stride) {
  RowSpec row;
  row.buffer = rng.uniform_index(2);
  row.len = 1 + rng.uniform_index(12);
  const auto len = static_cast<std::ptrdiff_t>(row.len);
  row.stride = static_cast<std::ptrdiff_t>(rng.uniform_index(4 * row.len + 1)) - 2 * len;
  if (rng.uniform_index(2) == 0 && family_stride >= -2 * len && family_stride <= 2 * len) {
    row.stride = family_stride;
  }
  if (rng.uniform_index(2) == 0) row.first = rng.uniform_index(n);
  if (rng.uniform_index(3) != 0) row.last = row.first + 1 + rng.uniform_index(n + 8 - row.first);
  const std::uint64_t count = std::min(row.last, n) - row.first;
  const std::size_t reach = (count - 1) * static_cast<std::size_t>(std::abs(row.stride));
  const std::size_t room = RowRegion::kBufferBytes - reach - row.len + 1;
  const bool packed = rng.uniform_index(2) == 0;
  const std::size_t lo = rng.uniform_index(packed ? std::min<std::size_t>(room, 64) : room);
  row.offset = static_cast<std::ptrdiff_t>(row.stride < 0 ? lo + reach : lo);
  return row;
}

TEST(AuditRows, ProofMatchesTheWalkOnRandomRows) {
  Xoshiro256 rng(0x5EEDu);
  int clean = 0;
  int flagged = 0;
  for (int set = 0; set < 400; ++set) {
    RowRegion region;
    region.n = 1 + rng.uniform_index(300);
    const std::ptrdiff_t family_stride = static_cast<std::ptrdiff_t>(rng.uniform_index(33)) - 16;
    const auto rows = [&](std::size_t count, bool may_commute) {
      std::vector<RowSpec> out;
      for (std::size_t r = 0; r < count; ++r) {
        out.push_back(random_row(rng, region.n, family_stride));
        out.back().commuting = may_commute && rng.uniform_index(5) == 0;
      }
      return out;
    };
    region.commits = rows(1 + rng.uniform_index(4), true);
    region.reads = rows(1 + rng.uniform_index(4), false);
    region.hidden = rows(rng.uniform_index(2), false);
    const std::uint64_t ipt = std::uint64_t{1} << rng.uniform_index(3);
    for (const bool differential : {false, true}) {
      SCOPED_TRACE("set " + std::to_string(set) + (differential ? " with" : " without") +
                   " differential");
      const RowRegion::Outcome proved = region.run(proof_tuning(true, differential), ipt);
      const RowRegion::Outcome walked = region.run(proof_tuning(false, differential), ipt);
      EXPECT_EQ(proved.texts, walked.texts);
      EXPECT_TRUE(proved.bytes == walked.bytes);
      if (!differential) ++(walked.texts.empty() ? clean : flagged);
    }
  }
  // Both outcomes are common, so the proof is exercised both ways.
  EXPECT_GT(clean, 50);
  EXPECT_GT(flagged, 50);
}

TEST(AuditRows, NegativeStrideRowsMatchTheWalk) {
  // Item i writes out[n-1-i], a reversed row of stride -8, which audits
  // clean. Declaring that item i also reads out[n-2-i], the cell item i+1
  // writes, gives a read/write finding per item pair, reported from the
  // lowest address up.
  constexpr std::uint64_t kItems = 256;
  std::vector<double> out(kItems, 0.0);
  approx::RegionBinding binding;
  binding.name = "audit.reversed";
  apps::bind_accurate(binding, [](std::uint64_t, double* o) { o[0] = 1.0; });
  apps::bind_constant_cost(binding, 16.0);
  apps::bind_commit(binding,
                    [&out](std::uint64_t i, const double* o) { out[kItems - 1 - i] = o[0]; });
  binding.independent_items = true;
  binding.commit_extents = {{.ptr = out.data() + kItems - 1,
                             .stride = -static_cast<std::ptrdiff_t>(sizeof(double)),
                             .len = sizeof(double)}};
  std::vector<std::string> expected;
  for (std::uint64_t k = 0; k < 8; ++k) {
    expected.push_back("read/write overlap: items " + std::to_string(kItems - 2 - k) + " and " +
                       std::to_string(kItems - 1 - k) + ", bytes [" + std::to_string(8 * k) +
                       "," + std::to_string(8 * (k + 1)) + ") of 'audit.reversed'");
  }
  approx::RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(kItems, 1, 128);
  for (const bool prove : {true, false}) {
    SCOPED_TRACE(prove ? "proof" : "walk");
    executor.set_tuning(proof_tuning(prove, true));
    binding.read_extents.clear();
    out.assign(kItems, 0.0);
    EXPECT_TRUE(executor.run(pragma::parse_approx("none"), binding, kItems, launch)
                    .stats.conflicts.empty());
    EXPECT_EQ(out, std::vector<double>(kItems, 1.0));  // every cell committed once

    executor.set_tuning(proof_tuning(prove, false));
    binding.read_extents = {{.ptr = out.data() + kItems - 2,
                             .stride = -static_cast<std::ptrdiff_t>(sizeof(double)),
                             .len = sizeof(double),
                             .last = kItems - 1}};
    EXPECT_EQ(texts_of(executor.run(pragma::parse_approx("none"), binding, kItems, launch)
                           .stats.conflicts),
              expected);
  }
}

TEST(AuditRows, PingPongRowsRedeclaredBeforeEachLaunch) {
  // A stencil that reads one buffer and writes the other, swapping them
  // between launches as leukocyte does. Rows hold raw pointers, so they
  // are re-declared before each launch; every launch then audits clean,
  // with the proof and with the walk, and leaves the bytes an unaudited
  // run leaves.
  constexpr std::uint64_t kItems = 256;
  const auto laps = [](const approx::ExecTuning& tuning) {
    std::vector<double> field(kItems + 1, 1.0);
    std::vector<double> next(kItems + 1, 0.0);
    approx::RegionBinding binding;
    binding.name = "audit.pingpong";
    apps::bind_accurate(binding, [&](std::uint64_t i, double* o) {
      o[0] = 0.5 * (field[i] + field[i + 1]) + static_cast<double>(i);
    });
    apps::bind_constant_cost(binding, 16.0);
    apps::bind_commit(binding, [&](std::uint64_t i, const double* o) { next[i] = o[0]; });
    binding.independent_items = true;
    approx::RegionExecutor executor(sim::v100());
    executor.set_tuning(tuning);
    const sim::LaunchConfig launch = sim::launch_for_items_per_thread(kItems, 1, 128);
    std::size_t findings = 0;
    for (int lap = 0; lap < 4; ++lap) {
      binding.commit_extents = {approx::audit::dense(next.data())};
      binding.read_extents = {{.ptr = field.data(),
                               .stride = sizeof(double),
                               .len = 2 * sizeof(double)}};
      const approx::RegionReport report =
          executor.run(pragma::parse_approx("none"), binding, kItems, launch);
      findings += report.stats.conflicts.size();
      std::swap(field, next);
    }
    EXPECT_EQ(findings, 0u);
    return field;
  };
  const std::vector<double> plain = laps(serial_audit(AuditMode::kOff, false));
  EXPECT_EQ(laps(proof_tuning(true, true)), plain);
  EXPECT_EQ(laps(proof_tuning(false, true)), plain);
}

TEST(AuditRows, OverlappingRowKeepsItsFindings) {
  // Item i writes cells i and i+1: one 16-byte row of stride 8, whose
  // items overlap. The proof must give the row to the walk, which reports
  // the same 8 texts as without the proof, and enforce throws.
  constexpr std::uint64_t kItems = 256;
  std::vector<double> cells(kItems + 1, 0.0);
  approx::RegionBinding binding;
  binding.name = "audit.overlap";
  apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  apps::bind_constant_cost(binding, 16.0);
  apps::bind_commit(binding, [&cells](std::uint64_t i, const double* o) {
    cells[i] = o[0];
    cells[i + 1] = o[0];
  });
  binding.independent_items = true;  // a false claim
  binding.commit_extents = {
      {.ptr = cells.data(), .stride = sizeof(double), .len = 2 * sizeof(double)}};
  std::vector<std::string> expected;
  for (int k = 0; k < 8; ++k) {
    expected.push_back("write/write overlap: items " + std::to_string(k) + " and " +
                       std::to_string(k + 1) + ", bytes [" + std::to_string(8 * (k + 1)) +
                       "," + std::to_string(8 * (k + 2)) + ") of 'audit.overlap'");
  }
  approx::RegionExecutor executor(sim::v100());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(kItems, 1, 128);
  for (const bool prove : {true, false}) {
    SCOPED_TRACE(prove ? "proof" : "walk");
    executor.set_tuning(proof_tuning(prove, true));
    EXPECT_EQ(texts_of(executor.run(pragma::parse_approx("none"), binding, kItems, launch)
                           .stats.conflicts),
              expected);
    approx::ExecTuning enforce = proof_tuning(prove, true);
    enforce.audit_mode = AuditMode::kEnforce;
    executor.set_tuning(enforce);
    try {
      executor.run(pragma::parse_approx("none"), binding, kItems, launch);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(expected.front()), std::string::npos) << e.what();
    }
  }
}

// --- the seven registered apps audit clean -----------------------------------

/// One entry per (registered app, device), so `ctest -j` spreads the
/// sweep and no single entry sets the suite's wall time.
class AuditApps : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(AuditApps, PassesEnforceAcrossTechniques) {
  const std::vector<std::string> clauses = {
      "memo(out:3:4:0.3) level(thread)",   // TAF
      "memo(in:8:0.5) level(thread) in(x) out(y)",  // iACT
      "perfo(small:2)",                    // perforation
  };
  const auto& [name, device] = GetParam();
  auto app = apps::make_benchmark(name);
  auto plain_app = apps::make_benchmark(name);
  harness::Explorer explorer(*app, sim::device_by_name(device));
  harness::Explorer plain(*plain_app, sim::device_by_name(device));
  for (const auto& clause : clauses) {
    harness::RunRecord record;
    {
      TuningGuard guard(serial_audit(AuditMode::kEnforce, true));
      record = explorer.run_config(pragma::parse_approx(clause), 8);
    }
    // Some (app, technique) pairs are legitimately infeasible (iACT
    // without uniform inputs); what must never appear is an audit
    // finding — every registered app's declarations hold up.
    EXPECT_EQ(record.note.find("commit-conflict"), std::string::npos)
        << name << " on " << device << " '" << clause << "': " << record.note;
    // Auditing never changes results. A row left pointing at a buffer
    // that was swapped away would snapshot and restore the wrong bytes
    // around the differential re-run.
    TuningGuard guard(serial_audit(AuditMode::kOff, false));
    EXPECT_EQ(row_text(record), row_text(plain.run_config(pragma::parse_approx(clause), 8)))
        << name << " on " << device << " '" << clause << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryApp, AuditApps,
    ::testing::Combine(::testing::ValuesIn(apps::benchmark_names()),
                       ::testing::Values(std::string("v100"), std::string("mi250x"))),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>& entry) {
      return std::get<0>(entry.param) + "_" + std::get<1>(entry.param);
    });

}  // namespace
