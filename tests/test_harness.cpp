// Tests for the exploration harness: Table-2 grids, the explorer's
// baseline/speedup bookkeeping, infeasible-config handling and the
// analysis helpers behind Figures 6, 11c and 12c.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "apps/support.hpp"
#include "common/error.hpp"
#include "common/scheduler.hpp"
#include "harness/analysis.hpp"
#include "pragma/parser.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "sim/device.hpp"

using namespace hpac;
using namespace hpac::harness;

TEST(Table2, AxesMatchThePaper) {
  EXPECT_EQ(table2::taf_history_sizes(), (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(table2::taf_prediction_sizes(),
            (std::vector<int>{2, 4, 8, 16, 32, 64, 128, 256, 512}));
  EXPECT_EQ(table2::memo_out_thresholds(),
            (std::vector<double>{0.3, 0.6, 0.9, 1.2, 1.5, 3.0, 5.0, 20.0}));
  EXPECT_EQ(table2::iact_tables_per_warp(), (std::vector<int>{1, 2, 16, 32, 64}));
  EXPECT_EQ(table2::iact_table_sizes(), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(table2::perfo_skips(), (std::vector<int>{2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(table2::perfo_skip_percents().size(), 9u);
  EXPECT_EQ(table2::items_per_thread(),
            (std::vector<std::uint64_t>{8, 16, 32, 64, 128, 256, 512}));
}

TEST(Table2, SixtyFourTablesPerWarpIsAmdOnly) {
  for (const auto& spec : iact_specs(SweepDensity::kFull, 32)) {
    EXPECT_LE(spec.iact->tables_per_warp, 32);
  }
  bool found64 = false;
  for (const auto& spec : iact_specs(SweepDensity::kFull, 64)) {
    found64 = found64 || spec.iact->tables_per_warp == 64;
  }
  EXPECT_TRUE(found64);
}

TEST(Table2, QuickGridsCoverAxisEndpoints) {
  const auto quick = taf_specs(SweepDensity::kQuick);
  const auto full = taf_specs(SweepDensity::kFull);
  EXPECT_LT(quick.size(), full.size());
  bool has_min_thr = false, has_max_thr = false;
  for (const auto& spec : quick) {
    has_min_thr = has_min_thr || spec.taf->rsd_threshold == 0.3;
    has_max_thr = has_max_thr || spec.taf->rsd_threshold == 20.0;
  }
  EXPECT_TRUE(has_min_thr);
  EXPECT_TRUE(has_max_thr);
}

TEST(Table2, AllGeneratedSpecsValidate) {
  for (const auto& spec : taf_specs(SweepDensity::kFull)) EXPECT_NO_THROW(spec.validate());
  for (const auto& spec : iact_specs(SweepDensity::kFull, 64)) EXPECT_NO_THROW(spec.validate());
  for (const auto& spec : perfo_specs(SweepDensity::kFull)) EXPECT_NO_THROW(spec.validate());
  for (const auto& spec : curated_taf_specs(table2::hierarchies())) {
    EXPECT_NO_THROW(spec.validate());
  }
  for (const auto& spec : curated_iact_specs(32, table2::hierarchies())) {
    EXPECT_NO_THROW(spec.validate());
  }
  for (const auto& spec : curated_perfo_specs()) EXPECT_NO_THROW(spec.validate());
}

TEST(Table2, FullConfigCountIsPaperScale) {
  // The paper explored 57,288 configurations across 7 benchmarks and two
  // platforms; one benchmark on both platforms lands in the same order of
  // magnitude.
  const auto both = full_config_count(32) + full_config_count(64);
  EXPECT_GT(both, 8000u);
  EXPECT_LT(both, 60000u);
}

namespace {

/// A deterministic synthetic benchmark for harness tests: quadratic
/// region with strong grid-stride locality.
class ToyBenchmark : public Benchmark {
 public:
  std::string name() const override { return "toy"; }

  std::unique_ptr<Benchmark> fork() const override {
    return std::make_unique<ToyBenchmark>(*this);
  }

  RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                const sim::DeviceConfig& device) override {
    const std::uint64_t n = 1 << 12;
    offload::Device dev(device);
    approx::RegionExecutor executor(device);
    std::vector<double> out(n, 0.0);
    approx::RegionBinding binding;
    binding.in_dims = 1;
    binding.out_dims = 1;
    apps::bind_gather(binding,
                      [](std::uint64_t i, double* in) { in[0] = static_cast<double>(i % 5); });
    apps::bind_accurate(binding, [](std::uint64_t i, double* o) {
      o[0] = 10.0 + static_cast<double>(i % 5);
    });
    apps::bind_constant_cost(binding, 100.0);
    apps::bind_commit(binding, [&out](std::uint64_t i, const double* o) { out[i] = o[0]; });
    const sim::LaunchConfig launch =
        sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
    RunOutput output;
    const auto report = executor.run(spec, binding, n, launch);
    output.timeline.kernel_seconds = report.timing.seconds;
    output.stats = report.stats;
    output.qoi = std::move(out);
    output.iterations = 10;
    return output;
  }
};

/// A benchmark whose timeline is all zeros: every scoped measurement is
/// degenerate (non-positive seconds).
class ZeroTimeBenchmark : public Benchmark {
 public:
  std::string name() const override { return "zero_time"; }

  RunOutput run(const pragma::ApproxSpec&, std::uint64_t,
                const sim::DeviceConfig&) override {
    RunOutput output;
    output.qoi = {1.0, 2.0, 3.0};
    return output;
  }
};

}  // namespace

TEST(Explorer, BaselineSpeedupIsOne) {
  ToyBenchmark toy;
  Explorer explorer(toy, sim::v100());
  pragma::ApproxSpec none;
  const auto record = explorer.run_config(none, toy.default_items_per_thread());
  EXPECT_NEAR(record.speedup, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(record.error_percent, 0.0);
}

TEST(Explorer, InfeasibleConfigIsRecordedNotThrown) {
  ToyBenchmark toy;
  Explorer explorer(toy, sim::v100());
  const auto spec = pragma::parse_approx("memo(in:4:0.5:3) in(x) out(y)");  // 3 !| 32
  const auto record = explorer.run_config(spec, 8);
  EXPECT_FALSE(record.feasible);
  EXPECT_NE(record.note.find("tables per warp"), std::string::npos);
}

TEST(Explorer, SweepFillsDatabase) {
  ToyBenchmark toy;
  Explorer explorer(toy, sim::v100());
  const auto specs = curated_perfo_specs();
  const std::size_t feasible = explorer.sweep(specs, {1, 8});
  EXPECT_EQ(explorer.db().size(), specs.size() * 2);
  EXPECT_EQ(feasible, specs.size() * 2);
}

TEST(Explorer, RecordsDenormalizedParameters) {
  ToyBenchmark toy;
  Explorer explorer(toy, sim::v100());
  const auto record =
      explorer.run_config(pragma::parse_approx("memo(out:4:32:1.5) level(warp)"), 8);
  EXPECT_EQ(record.history_size, 4);
  EXPECT_EQ(record.prediction_size, 32);
  EXPECT_DOUBLE_EQ(record.threshold, 1.5);
  EXPECT_EQ(record.level, pragma::HierarchyLevel::kWarp);
  EXPECT_EQ(record.technique, pragma::Technique::kTafMemo);
}

TEST(Explorer, DegenerateRunIsInfeasibleNotZeroSpeedup) {
  ZeroTimeBenchmark zero;
  Explorer explorer(zero, sim::v100());
  pragma::ApproxSpec none;
  const auto record = explorer.run_config(none, 1);
  EXPECT_FALSE(record.feasible);
  EXPECT_NE(record.note.find("non-positive"), std::string::npos);
  EXPECT_DOUBLE_EQ(record.speedup, 0.0);
}

TEST(Explorer, ParallelSweepMatchesSerialByteForByte) {
  // >= 32 configurations: 14 curated perforation specs x 3 ipt values.
  const auto specs = curated_perfo_specs();
  const std::vector<std::uint64_t> ipt_axis{1, 4, 8};
  ASSERT_GE(specs.size() * ipt_axis.size(), 32u);

  ToyBenchmark serial_bench, parallel_bench;
  Explorer serial(serial_bench, sim::v100());
  Explorer parallel(parallel_bench, sim::v100());
  const std::size_t serial_feasible = serial.sweep(specs, ipt_axis, 1);
  const std::size_t parallel_feasible = parallel.sweep(specs, ipt_axis, 4);

  EXPECT_EQ(serial_feasible, parallel_feasible);
  ASSERT_EQ(serial.db().size(), parallel.db().size());
  for (std::size_t i = 0; i < serial.db().size(); ++i) {
    const auto& a = serial.db().records()[i];
    const auto& b = parallel.db().records()[i];
    EXPECT_EQ(a.spec_text, b.spec_text) << "row " << i;
    EXPECT_EQ(a.items_per_thread, b.items_per_thread) << "row " << i;
    EXPECT_EQ(a.feasible, b.feasible) << "row " << i;
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup) << "row " << i;
    EXPECT_DOUBLE_EQ(a.error_percent, b.error_percent) << "row " << i;
  }

  std::ostringstream serial_csv, parallel_csv;
  serial.db().to_csv().write(serial_csv);
  parallel.db().to_csv().write(parallel_csv);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(Explorer, NonForkableBenchmarkStillSweeps) {
  // ZeroTimeBenchmark keeps the default fork() == nullptr, so a
  // multi-threaded sweep must quietly fall back to the serial path.
  ZeroTimeBenchmark zero;
  Explorer explorer(zero, sim::v100());
  pragma::ApproxSpec none;
  const std::size_t feasible = explorer.sweep({none, none}, {1, 2, 4}, 4);
  EXPECT_EQ(feasible, 0u);  // all runs are degenerate for this benchmark
  EXPECT_EQ(explorer.db().size(), 6u);
}

TEST(Analysis, BestUnderErrorPicksFastestQualifying) {
  std::vector<RunRecord> records(3);
  records[0].speedup = 3.0;
  records[0].error_percent = 15.0;  // too lossy
  records[1].speedup = 2.0;
  records[1].error_percent = 5.0;
  records[2].speedup = 1.5;
  records[2].error_percent = 1.0;
  const auto best = best_under_error(records, 10.0);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->speedup, 2.0);
}

TEST(Analysis, BestUnderErrorSkipsInfeasible) {
  std::vector<RunRecord> records(2);
  records[0].speedup = 9.0;
  records[0].error_percent = 0.0;
  records[0].feasible = false;
  records[1].speedup = 20.0;  // feasible, but its error is unknown
  records[1].error_percent = std::nan("");
  EXPECT_FALSE(best_under_error(records, 10.0).has_value());
  EXPECT_TRUE(errors_under(records, 10.0).empty());
}

TEST(Analysis, ConvergenceCorrelationPerfectLine) {
  std::vector<RunRecord> records;
  for (int i = 1; i <= 10; ++i) {
    RunRecord r;
    r.baseline_iterations = 100;
    r.iterations = 100.0 / i;
    r.speedup = static_cast<double>(i);
    records.push_back(r);
  }
  const auto corr = convergence_correlation(records);
  EXPECT_NEAR(corr.regression.r2, 1.0, 1e-9);
  EXPECT_NEAR(corr.regression.slope, 1.0, 1e-9);
}

TEST(Analysis, GeomeanBestTakesPerTechniqueBest) {
  std::vector<RunRecord> records(3);
  records[0].benchmark = "a";
  records[0].technique = pragma::Technique::kTafMemo;
  records[0].speedup = 2.0;
  records[0].error_percent = 1.0;
  records[1] = records[0];
  records[1].speedup = 4.0;  // better; should be the one counted
  records[2].benchmark = "b";
  records[2].technique = pragma::Technique::kPerforation;
  records[2].speedup = 1.0;
  records[2].error_percent = 2.0;
  records.push_back(records[0]);
  records[3].speedup = 100.0;  // fastest of all, with a NaN error
  records[3].error_percent = std::nan("");
  EXPECT_NEAR(geomean_best_speedup(records, 10.0), std::sqrt(4.0 * 1.0), 1e-12);
}

TEST(Analysis, GeomeanBestWithNoFeasibleRecordIsZero) {
  EXPECT_DOUBLE_EQ(geomean_best_speedup({}, 10.0), 0.0);
  std::vector<RunRecord> records(2);
  records[0].feasible = false;
  records[0].speedup = 3.0;
  records[1].error_percent = 50.0;  // feasible but over the bound
  records[1].speedup = 2.0;
  EXPECT_DOUBLE_EQ(geomean_best_speedup(records, 10.0), 0.0);
}

TEST(Analysis, BestUnderErrorEmptyAndBoundaryCases) {
  EXPECT_FALSE(best_under_error({}, 10.0).has_value());
  std::vector<RunRecord> records(1);
  records[0].error_percent = 10.0;  // the bound is exclusive
  records[0].speedup = 5.0;
  EXPECT_FALSE(best_under_error(records, 10.0).has_value());
  EXPECT_TRUE(errors_under(records, 10.0).empty());
}

TEST(Analysis, PerDeviceGeomeanBestSplitsByDevice) {
  std::vector<RunRecord> records(4);
  records[0].benchmark = "a";
  records[0].device = "v100";
  records[0].technique = pragma::Technique::kTafMemo;
  records[0].speedup = 4.0;
  records[0].error_percent = 1.0;
  records[1] = records[0];
  records[1].device = "mi250x";
  records[1].speedup = 2.0;
  records[2] = records[0];
  records[2].device = "mi250x";
  records[2].technique = pragma::Technique::kPerforation;
  records[2].speedup = 8.0;
  records[3] = records[0];
  records[3].device = "a100";
  records[3].feasible = false;
  records.push_back(records[0]);
  records[4].speedup = 100.0;  // fastest on v100, with a NaN error
  records[4].error_percent = std::nan("");

  const auto table = per_device_geomean_best(records, 10.0);
  ASSERT_EQ(table.size(), 3u);  // sorted: a100, mi250x, v100
  EXPECT_EQ(table[0].device, "a100");
  EXPECT_DOUBLE_EQ(table[0].geomean_best, 0.0);
  EXPECT_EQ(table[0].feasible, 0u);
  EXPECT_EQ(table[0].total, 1u);
  EXPECT_EQ(table[1].device, "mi250x");
  EXPECT_NEAR(table[1].geomean_best, std::sqrt(2.0 * 8.0), 1e-12);
  EXPECT_EQ(table[2].device, "v100");
  EXPECT_DOUBLE_EQ(table[2].geomean_best, 4.0);
}

namespace {

/// A record exercising every CSV column, including cells that force
/// quoting in the serialized form.
RunRecord tricky_record() {
  RunRecord r;
  r.benchmark = "kmeans";
  r.device = "mi250x";
  r.technique = pragma::Technique::kIactMemo;
  r.spec_text = "memo(in:4:0.5:16) in(x) out(y)";
  r.level = pragma::HierarchyLevel::kWarp;
  r.items_per_thread = 512;
  r.feasible = false;
  r.note = "line\nbreak, with \"quotes\" and commas";
  r.speedup = 1.0 / 3.0;
  r.error_percent = 12.3456789;
  r.approx_ratio = 0.25;
  r.kernel_seconds = 1.5e-4;
  r.end_to_end_seconds = 2.25e-3;
  r.iterations = 42;
  r.baseline_iterations = 60;
  r.threshold = 0.5;
  r.history_size = 3;
  r.prediction_size = 8;
  r.table_size = 4;
  r.tables_per_warp = 16;
  r.perfo_kind = "small";
  r.perfo_stride = 2;
  r.perfo_fraction = 0.3;
  return r;
}

}  // namespace

TEST(RunRecordCsv, RowRoundTripRestoresEveryField) {
  ResultDb db;
  db.add(tricky_record());
  std::ostringstream os;
  db.to_csv().write(os);
  std::istringstream is(os.str());
  const CsvTable loaded = CsvTable::load(is);
  ASSERT_EQ(loaded.row_count(), 1u);
  const RunRecord r = RunRecord::from_row(loaded, 0);
  const RunRecord expect = tricky_record();
  EXPECT_EQ(r.benchmark, expect.benchmark);
  EXPECT_EQ(r.device, expect.device);
  EXPECT_EQ(r.technique, expect.technique);
  EXPECT_EQ(r.spec_text, expect.spec_text);
  EXPECT_EQ(r.level, expect.level);
  EXPECT_EQ(r.items_per_thread, expect.items_per_thread);
  EXPECT_EQ(r.feasible, expect.feasible);
  EXPECT_EQ(r.note, expect.note);
  EXPECT_DOUBLE_EQ(r.speedup, expect.speedup);  // exact: shortest-round-trip doubles
  EXPECT_DOUBLE_EQ(r.error_percent, expect.error_percent);
  EXPECT_DOUBLE_EQ(r.approx_ratio, expect.approx_ratio);
  EXPECT_DOUBLE_EQ(r.kernel_seconds, expect.kernel_seconds);
  EXPECT_DOUBLE_EQ(r.end_to_end_seconds, expect.end_to_end_seconds);
  EXPECT_DOUBLE_EQ(r.iterations, expect.iterations);
  EXPECT_DOUBLE_EQ(r.baseline_iterations, expect.baseline_iterations);
  EXPECT_DOUBLE_EQ(r.threshold, expect.threshold);
  EXPECT_EQ(r.history_size, expect.history_size);
  EXPECT_EQ(r.prediction_size, expect.prediction_size);
  EXPECT_EQ(r.table_size, expect.table_size);
  EXPECT_EQ(r.tables_per_warp, expect.tables_per_warp);
  EXPECT_EQ(r.perfo_kind, expect.perfo_kind);
  EXPECT_EQ(r.perfo_stride, expect.perfo_stride);
  EXPECT_DOUBLE_EQ(r.perfo_fraction, expect.perfo_fraction);
}

TEST(RunRecordCsv, SaveLoadReserializeIsByteIdentical) {
  ResultDb db;
  db.add(tricky_record());
  RunRecord plain;
  plain.benchmark = "lulesh";
  plain.device = "v100";
  plain.spec_text = "perfo(small:2)";
  plain.speedup = 1.25;
  db.add(plain);
  const std::string path = testing::TempDir() + "hpac_record_roundtrip.csv";
  db.save(path);
  const ResultDb loaded = ResultDb::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  std::ostringstream original, reserialized;
  db.to_csv().write(original);
  loaded.to_csv().write(reserialized);
  EXPECT_EQ(reserialized.str(), original.str());
  std::remove(path.c_str());
}

TEST(RunRecordCsv, LoadRejectsForeignColumns) {
  const std::string path = testing::TempDir() + "hpac_record_badschema.csv";
  {
    std::ofstream out(path);
    out << "benchmark,speedup\nx,2\n";
  }
  EXPECT_THROW(ResultDb::load(path), Error);
  std::remove(path.c_str());
}

TEST(RunRecordCsv, TechniqueAndHierarchyNamesRoundTrip) {
  using pragma::Technique;
  for (const auto t : {Technique::kNone, Technique::kTafMemo, Technique::kIactMemo,
                       Technique::kPerforation}) {
    EXPECT_EQ(pragma::technique_from_name(pragma::technique_name(t)), t);
  }
  using pragma::HierarchyLevel;
  for (const auto level :
       {HierarchyLevel::kThread, HierarchyLevel::kWarp, HierarchyLevel::kBlock}) {
    EXPECT_EQ(pragma::hierarchy_from_name(pragma::hierarchy_name(level)), level);
  }
  EXPECT_THROW(pragma::technique_from_name("hologram"), ParseError);
  EXPECT_THROW(pragma::hierarchy_from_name("galaxy"), ParseError);
}

TEST(ResultDb, CsvExportHasAllRows) {
  ResultDb db;
  RunRecord r;
  r.benchmark = "x";
  r.spec_text = "perfo(small:2)";
  db.add(r);
  db.add(r);
  const auto csv = db.to_csv();
  EXPECT_EQ(csv.row_count(), 2u);
  EXPECT_NO_THROW(csv.column_index("speedup"));
  EXPECT_NO_THROW(csv.column_index("error_percent"));
}

namespace {

/// ToyBenchmark that counts fork() calls across the whole clone tree —
/// forks of forks report into the same root counter.
class ForkCountingBenchmark : public ToyBenchmark {
 public:
  ForkCountingBenchmark() : counter_(std::make_shared<std::atomic<std::size_t>>(0)) {}

  std::unique_ptr<Benchmark> fork() const override {
    counter_->fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<ForkCountingBenchmark>(*this);
  }

  std::size_t fork_count() const { return counter_->load(); }

 private:
  std::shared_ptr<std::atomic<std::size_t>> counter_;
};

}  // namespace

TEST(Explorer, LazyForkingNeverExceedsParticipantsOnOneSpecSweep) {
  // One spec x two ipt values = two tasks. Forks are created lazily per
  // participant slot, so at most min(participants, tasks) = 2 clones can
  // ever exist — and when the calling thread claims both indices before a
  // worker steals, exactly 1 (the slot-0 probe). The eager scheme forked
  // one per slot up front unconditionally.
  ForkCountingBenchmark bench;
  Explorer explorer(bench, sim::v100());
  const auto specs = std::vector<pragma::ApproxSpec>{pragma::ApproxSpec{}};
  const std::size_t feasible = explorer.sweep(specs, {1, 4}, 8);
  EXPECT_EQ(feasible, 2u);
  EXPECT_GE(bench.fork_count(), 1u);
  EXPECT_LE(bench.fork_count(), 2u);
  EXPECT_EQ(explorer.db().size(), 2u);
}

TEST(Explorer, LazyForkingSerialSweepNeverForks) {
  ForkCountingBenchmark bench;
  Explorer explorer(bench, sim::v100());
  explorer.sweep({pragma::ApproxSpec{}}, {1, 4}, /*num_threads=*/1);
  EXPECT_EQ(bench.fork_count(), 0u);
}

TEST(Explorer, LazyForkingParallelSweepStaysByteIdenticalToSerial) {
  const auto specs = curated_perfo_specs();
  ForkCountingBenchmark serial_bench, parallel_bench;
  Explorer serial(serial_bench, sim::v100());
  Explorer parallel(parallel_bench, sim::v100());
  serial.sweep(specs, {1, 4}, 1);
  parallel.sweep(specs, {1, 4}, 4);
  const std::size_t workers = std::min<std::size_t>(
      {Scheduler::recommended_threads(4, specs.size() * 2), Scheduler::shared().parallelism()});
  EXPECT_LE(parallel_bench.fork_count(), workers);
  std::ostringstream serial_csv, parallel_csv;
  serial.db().to_csv().write(serial_csv);
  parallel.db().to_csv().write(parallel_csv);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}
