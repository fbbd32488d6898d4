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
//   * the declared-check cache's hit, miss and non-affine accounting,
//     its findings on a hit, and its read channel.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "approx/audit.hpp"
#include "approx/region.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
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
    apps::bind_row_commit_extents(b, cells, 1);
    b.read_extents = [this](std::uint64_t i, approx::audit::ExtentSink& sink) {
      if (i % 64 == 0 && i % 256 < 128) sink.reads(cells.data() + i + 1, sizeof(double));
    };
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

  binding.commit_extents = [&cells](std::uint64_t i, approx::audit::ExtentSink& sink) {
    sink.writes(cells.data() + i / 2, sizeof(double));
  };
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
  binding.commit_extents = [&cells](std::uint64_t i, approx::audit::ExtentSink& sink) {
    sink.writes(cells.data() + i, sizeof(double));
    if (i == 21 || i == 23 || i == 25) sink.writes(cells.data() + i - 1, sizeof(double));
  };
  binding.read_extents = [&cells](std::uint64_t i, approx::audit::ExtentSink& sink) {
    if (i < 12) sink.reads(cells.data() + i + 1, sizeof(double));
  };
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
  binding.commit_extents = [&cells](std::uint64_t i, approx::audit::ExtentSink& sink) {
    sink.writes(cells.data() + i, sizeof(double));
    if (i == 160) sink.writes(cells.data() + 161, sizeof(double));
  };
  binding.read_extents = [&cells](std::uint64_t i, approx::audit::ExtentSink& sink) {
    if (i == 200) sink.reads(cells.data() + 201, sizeof(double));
  };
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

// --- the seven registered apps audit clean -----------------------------------

/// One entry per (registered app, device), so `ctest -j` spreads the
/// sweep and no single entry sets the suite's wall time.
class AuditApps : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(AuditApps, PassesEnforceAcrossTechniques) {
  TuningGuard guard(serial_audit(AuditMode::kEnforce, true));
  const std::vector<std::string> clauses = {
      "memo(out:3:4:0.3) level(thread)",   // TAF
      "memo(in:8:0.5) level(thread) in(x) out(y)",  // iACT
      "perfo(small:2)",                    // perforation
  };
  const auto& [name, device] = GetParam();
  auto app = apps::make_benchmark(name);
  harness::Explorer explorer(*app, sim::device_by_name(device));
  for (const auto& clause : clauses) {
    const harness::RunRecord record = explorer.run_config(pragma::parse_approx(clause), 8);
    // Some (app, technique) pairs are legitimately infeasible (iACT
    // without uniform inputs); what must never appear is an audit
    // finding — every registered app's declarations hold up.
    EXPECT_EQ(record.note.find("commit-conflict"), std::string::npos)
        << name << " on " << device << " '" << clause << "': " << record.note;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryApp, AuditApps,
    ::testing::Combine(::testing::ValuesIn(apps::benchmark_names()),
                       ::testing::Values(std::string("v100"), std::string("mi250x"))),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>& entry) {
      return std::get<0>(entry.param) + "_" + std::get<1>(entry.param);
    });

// --- declared-check memoization (audit::ExtentImageCache) --------------------

/// A minimal honest region whose commit extents the cache can model:
/// item i writes one double at `target[index_of(i)]`.
struct CacheRegion {
  std::uint64_t n = 256;
  std::vector<double> out;
  std::vector<double> alt;  ///< second buffer for the ping-pong case

  /// `index_of` maps item -> element of the committed buffer (identity by
  /// default) and must stay a permutation: the regions here are honest,
  /// the cache is what is under test. `flip()` swaps the committed buffer
  /// between launches (ping-pong).
  approx::RegionBinding binding(std::function<std::uint64_t(std::uint64_t)> index_of =
                                    [](std::uint64_t i) { return i; }) {
    out.assign(n, -1.0);
    alt.assign(n, -1.0);
    current_ = &out;
    index_of_ = std::move(index_of);
    approx::RegionBinding b;
    b.name = "cache.region";
    b.in_dims = 1;
    b.out_dims = 1;
    apps::bind_gather(b, [](std::uint64_t i, double* in) { in[0] = static_cast<double>(i % 5); });
    apps::bind_accurate(b, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
    apps::bind_constant_cost(b, 50.0);
    apps::bind_commit(b, [this](std::uint64_t i, const double* o) {
      (*current_)[index_of_(i)] = o[0];
    });
    b.independent_items = true;  // index_of is a permutation
    b.commit_extents = [this](std::uint64_t i, approx::audit::ExtentSink& sink) {
      sink.writes(current_->data() + index_of_(i), sizeof(double));
    };
    return b;
  }

  void flip() { current_ = current_ == &out ? &alt : &out; }
  std::vector<double>& current() { return *current_; }

 private:
  std::vector<double>* current_ = nullptr;
  std::function<std::uint64_t(std::uint64_t)> index_of_;
};

approx::ExecTuning cache_tuning(bool extent_cache = true) {
  approx::ExecTuning tuning = serial_audit(AuditMode::kReport, true);
  tuning.audit_extent_cache = extent_cache;
  return tuning;
}

void run_once(const approx::RegionExecutor& executor, CacheRegion& region,
              const approx::RegionBinding& binding) {
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(region.n, 1, 128);
  const approx::RegionReport report =
      executor.run(pragma::parse_approx("none"), binding, region.n, launch);
  EXPECT_TRUE(report.stats.conflicts.empty());
  for (std::uint64_t i = 0; i < region.n; ++i) {
    SCOPED_TRACE(i);
    // A permutation of identity values covers every element exactly once.
    EXPECT_GE(region.current()[i], 0.0);
  }
}

TEST(AuditExtentCache, RepeatedLaunchSkipsTheWalk) {
  CacheRegion region;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning());
  const approx::RegionBinding binding = region.binding();

  run_once(executor, region, binding);
  auto stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.non_affine, 0u);

  run_once(executor, region, binding);
  run_once(executor, region, binding);
  stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // one full walk total
  EXPECT_EQ(stats.hits, 2u);

  // A different item count is a different image: full walk again.
  const std::uint64_t full = region.n;
  region.n = full / 2;
  run_once(executor, region, binding);
  stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  region.n = full;
}

TEST(AuditExtentCache, NegativeStrideIsAffineToo) {
  CacheRegion region;
  const std::uint64_t n = region.n;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning());
  // Reversal: base = &out[n-1], per-item displacement -sizeof(double) in
  // wrapping address arithmetic.
  const approx::RegionBinding binding =
      region.binding([n](std::uint64_t i) { return n - 1 - i; });

  run_once(executor, region, binding);
  run_once(executor, region, binding);
  const auto stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.non_affine, 0u);
}

TEST(AuditExtentCache, PingPongBuffersOccupySeparateVariants) {
  CacheRegion region;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning());
  const approx::RegionBinding binding = region.binding();

  // First lap over each buffer walks; every later lap probes and hits.
  for (int lap = 0; lap < 4; ++lap) {
    run_once(executor, region, binding);
    region.flip();
  }
  const auto stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 2u);  // one walk per buffer
  EXPECT_EQ(stats.hits, 2u);
}

TEST(AuditExtentCache, NonAffinePatternIsNeverServedFromCache) {
  CacheRegion region;
  const std::uint64_t n = region.n;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning());
  // Piecewise-affine permutation (even items first): item 2 breaks the
  // stride fixed by items 0 and 1, so no single affine model fits.
  const approx::RegionBinding binding = region.binding(
      [n](std::uint64_t i) { return i % 2 == 0 ? i / 2 : n / 2 + i / 2; });

  run_once(executor, region, binding);
  run_once(executor, region, binding);
  const auto stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 2u);  // rebuilt exactly, per launch
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.non_affine, 2u);
}

TEST(AuditExtentCache, AffineOnlyAtTheProbesIsNeverServedFromCache) {
  CacheRegion region;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning());
  // Identity at the probed items 0, 1 and n-1, but items 2 and 3 swap
  // cells: only the walk's per-item check can tell.
  const approx::RegionBinding binding = region.binding([](std::uint64_t i) -> std::uint64_t {
    return i == 2 ? 3 : i == 3 ? 2 : i;
  });

  run_once(executor, region, binding);
  run_once(executor, region, binding);
  const auto stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.non_affine, 2u);
}

TEST(AuditExtentCache, OverlappingAffineBindingHitKeepsItsFindings) {
  // Item i writes cells i and i+1: an affine shape (one 16-byte entry of
  // stride 8) whose items overlap. A hit reuses the walk's findings, so
  // the second launch reports the same texts and enforce still throws.
  constexpr std::uint64_t kItems = 256;
  std::vector<double> cells(kItems + 1, 0.0);
  approx::RegionBinding binding;
  binding.name = "cache.overlap";
  apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  apps::bind_constant_cost(binding, 16.0);
  apps::bind_commit(binding, [&cells](std::uint64_t i, const double* o) {
    cells[i] = o[0];
    cells[i + 1] = o[0];
  });
  binding.independent_items = true;  // a false claim
  binding.commit_extents = [&cells](std::uint64_t i, approx::audit::ExtentSink& sink) {
    sink.writes(cells.data() + i, 2 * sizeof(double));
  };
  std::vector<std::string> expected;
  for (int k = 0; k < 8; ++k) {
    expected.push_back("write/write overlap: items " + std::to_string(k) + " and " +
                       std::to_string(k + 1) + ", bytes [" + std::to_string(8 * (k + 1)) +
                       "," + std::to_string(8 * (k + 2)) + ") of 'cache.overlap'");
  }
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning());
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(kItems, 1, 128);
  const auto conflicts = [&] {
    return texts_of(
        executor.run(pragma::parse_approx("none"), binding, kItems, launch).stats.conflicts);
  };

  EXPECT_EQ(conflicts(), expected);
  EXPECT_EQ(executor.audit_cache_stats().misses, 1u);
  EXPECT_EQ(executor.audit_cache_stats().hits, 0u);
  EXPECT_EQ(conflicts(), expected);
  EXPECT_EQ(executor.audit_cache_stats().misses, 1u);
  EXPECT_EQ(executor.audit_cache_stats().hits, 1u);

  approx::ExecTuning enforce = cache_tuning();
  enforce.audit_mode = AuditMode::kEnforce;
  executor.set_tuning(enforce);
  try {
    conflicts();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(expected.front()), std::string::npos) << e.what();
  }
  EXPECT_EQ(executor.audit_cache_stats().misses, 1u);
  EXPECT_EQ(executor.audit_cache_stats().hits, 2u);
}

TEST(AuditExtentCache, ReadsAffineOnlyAtTheProbesAreNeverServedFromCache) {
  CacheRegion region;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning());
  // The commits are the identity, affine everywhere; the declared reads of
  // the other buffer are the identity at the probed items 0, 1 and n-1,
  // but items 2 and 3 swap cells. Only the walk's per-item check of the
  // read channel can tell.
  approx::RegionBinding binding = region.binding();
  binding.read_extents = [&region](std::uint64_t i, approx::audit::ExtentSink& sink) {
    const std::uint64_t cell = i == 2 ? 3 : i == 3 ? 2 : i;
    sink.reads(region.alt.data() + cell, sizeof(double));
  };

  run_once(executor, region, binding);
  run_once(executor, region, binding);
  const auto stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.non_affine, 2u);
}

TEST(AuditExtentCache, KnobOffLeavesTheCacheUntouched) {
  CacheRegion region;
  approx::RegionExecutor executor(sim::v100());
  executor.set_tuning(cache_tuning(/*extent_cache=*/false));
  const approx::RegionBinding binding = region.binding();

  run_once(executor, region, binding);
  run_once(executor, region, binding);
  const auto stats = executor.audit_cache_stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.non_affine, 0u);
}

}  // namespace
