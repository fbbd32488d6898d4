// Tests for the Campaign layer: cross-product planning, (benchmark,
// device) sharding, checkpoint persistence, and — the load-bearing
// property — kill-and-resume parity: an interrupted campaign re-run with
// the same output path evaluates only the missing tuples and ends with a
// CSV byte-identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "harness/campaign.hpp"
#include "pragma/parser.hpp"

using namespace hpac;
using namespace hpac::harness;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The record's CSV row, byte for byte as a store writes it.
std::string row_text(const RunRecord& record) {
  std::ostringstream os;
  write_csv_row(os, record.to_row());
  return os.str();
}

std::string temp_csv(const std::string& stem) {
  const std::string path = testing::TempDir() + "hpac_campaign_" + stem + ".csv";
  std::remove(path.c_str());
  return path;
}

/// A small, fast plan: one cheap benchmark, one device, three perforation
/// specs, two launch geometries — 6 tuples across 1 shard.
CampaignPlan tiny_plan() {
  CampaignPlan plan;
  plan.benchmarks = {"lavamd"};
  plan.devices = {"v100"};
  plan.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{
        pragma::parse_approx("perfo(small:2)"),
        pragma::parse_approx("perfo(large:4)"),
        pragma::parse_approx("perfo(fini:0.3)"),
    };
  };
  plan.items_per_thread = {1, 8};
  plan.num_threads = 2;
  return plan;
}

/// Two benchmarks x two devices: 4 shards, 16 tuples.
CampaignPlan multi_shard_plan() {
  CampaignPlan plan = tiny_plan();
  plan.benchmarks = {"lavamd", "binomial_options"};
  plan.devices = {"v100", "mi250x"};
  plan.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{
        pragma::parse_approx("perfo(small:2)"),
        pragma::parse_approx("perfo(fini:0.3)"),
    };
  };
  return plan;
}

}  // namespace

TEST(Campaign, RejectsBadPlans) {
  CampaignPlan plan = tiny_plan();
  plan.benchmarks = {"not_a_benchmark"};
  EXPECT_THROW(Campaign{plan}, ConfigError);

  plan = tiny_plan();
  plan.devices = {"tpu"};
  EXPECT_THROW(Campaign{plan}, ConfigError);

  plan = tiny_plan();
  plan.benchmarks.clear();
  EXPECT_THROW(Campaign{plan}, Error);

  plan = tiny_plan();
  plan.items_per_thread.clear();
  EXPECT_THROW(Campaign{plan}, Error);

  plan = tiny_plan();
  plan.items_per_thread = {8, 0};  // ipt = 0 is a meaningless launch
  EXPECT_THROW(Campaign{plan}, Error);

  plan = tiny_plan();
  plan.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{};
  };
  EXPECT_THROW(Campaign{plan}, Error);
}

TEST(Campaign, RejectsDuplicateTuples) {
  CampaignPlan plan = tiny_plan();
  plan.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{
        pragma::parse_approx("perfo(small:2)"),
        pragma::parse_approx("perfo(small:2)"),
    };
  };
  EXPECT_THROW(Campaign{plan}, Error);
}

TEST(Campaign, PlansTheFullCrossProduct) {
  Campaign campaign(multi_shard_plan());
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.planned, 2u * 2u * 2u * 2u);
  EXPECT_EQ(result.evaluated, result.planned);
  EXPECT_EQ(result.restored, 0u);
  EXPECT_EQ(result.db.size(), result.planned);
}

TEST(Campaign, RecordsArriveInCanonicalOrder) {
  const CampaignResult result = Campaign(multi_shard_plan()).run();
  // Device-major, then benchmark, then spec, then items-per-thread — the
  // shard enumeration order, independent of worker scheduling.
  const auto& records = result.db.records();
  ASSERT_EQ(records.size(), 16u);
  EXPECT_EQ(records[0].device, "v100");
  EXPECT_EQ(records[0].benchmark, "lavamd");
  EXPECT_EQ(records[0].items_per_thread, 1u);
  EXPECT_EQ(records[1].items_per_thread, 8u);
  EXPECT_EQ(records[4].benchmark, "binomial_options");
  EXPECT_EQ(records[8].device, "mi250x");
}

TEST(Campaign, ParallelAndSerialProduceIdenticalCsv) {
  CampaignPlan serial = multi_shard_plan();
  serial.num_threads = 1;
  CampaignPlan parallel = multi_shard_plan();
  parallel.num_threads = 4;
  std::ostringstream serial_csv, parallel_csv;
  Campaign(serial).run().db.to_csv().write(serial_csv);
  Campaign(parallel).run().db.to_csv().write(parallel_csv);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(Campaign, WritesCheckpointAndResumeIsANoOp) {
  CampaignPlan plan = tiny_plan();
  plan.output_path = temp_csv("noop");
  const CampaignResult first = Campaign(plan).run();
  EXPECT_EQ(first.evaluated, first.planned);
  const std::string bytes_after_first = slurp(plan.output_path);

  const CampaignResult second = Campaign(plan).run();
  EXPECT_EQ(second.evaluated, 0u);
  EXPECT_EQ(second.restored, second.planned);
  EXPECT_EQ(slurp(plan.output_path), bytes_after_first);
  std::remove(plan.output_path.c_str());
}

TEST(Campaign, KillAndResumeParity) {
  // Reference: one uninterrupted run.
  CampaignPlan reference_plan = multi_shard_plan();
  reference_plan.output_path = temp_csv("reference");
  Campaign(reference_plan).run();
  const std::string reference_bytes = slurp(reference_plan.output_path);

  // Interrupted run: the observer starts throwing after 3 records, which
  // aborts the in-flight shards and abandons the unstarted ones. The
  // journal keeps what completed.
  CampaignPlan killed_plan = multi_shard_plan();
  killed_plan.output_path = temp_csv("killed");
  std::atomic<std::size_t> delivered{0};
  killed_plan.on_record = [&delivered](const RunRecord&) {
    if (++delivered >= 3) throw std::runtime_error("simulated kill");
  };
  EXPECT_THROW(Campaign(killed_plan).run(), std::runtime_error);
  const ResultDb partial = ResultDb::load(killed_plan.output_path);
  EXPECT_GT(partial.size(), 0u);
  EXPECT_LT(partial.size(), 16u);

  // Resume with the same output path: only the missing tuples run, and the
  // final file is byte-identical to the uninterrupted reference.
  CampaignPlan resume_plan = multi_shard_plan();
  resume_plan.output_path = killed_plan.output_path;
  const CampaignResult resumed = Campaign(resume_plan).run();
  EXPECT_EQ(resumed.restored, partial.size());
  EXPECT_EQ(resumed.evaluated, resumed.planned - partial.size());
  EXPECT_EQ(resumed.stale, 0u);
  EXPECT_EQ(slurp(resume_plan.output_path), reference_bytes);

  std::remove(reference_plan.output_path.c_str());
  std::remove(resume_plan.output_path.c_str());
}

TEST(Campaign, OnRecordRunsOutsideTheRecordLock) {
  // Regression: on_record used to be invoked while holding the campaign's
  // internal record/journal lock, so a callback that blocked until some
  // *other* worker made progress deadlocked the whole campaign (the other
  // worker needed that same lock to journal). The first callback below
  // refuses to return until a second data row reaches the checkpoint —
  // only possible if journaling proceeds while the callback is blocked.
  CampaignPlan plan = multi_shard_plan();  // 4 shards: two run concurrently
  plan.num_threads = 2;
  plan.output_path = temp_csv("unlocked_callback");

  const auto data_rows = [&] {
    const std::string bytes = slurp(plan.output_path);
    const auto newlines = std::count(bytes.begin(), bytes.end(), '\n');
    return newlines > 0 ? newlines - 1 : 0;  // minus the header line
  };
  std::atomic<bool> first{true};
  std::atomic<bool> observed_progress{false};
  plan.on_record = [&](const RunRecord&) {
    if (!first.exchange(false)) return;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (data_rows() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return;  // deadlocked: fail below
      std::this_thread::yield();
    }
    observed_progress = true;
  };
  const CampaignResult result = Campaign(plan).run();
  EXPECT_TRUE(observed_progress.load())
      << "journaling stalled while on_record was blocked";
  EXPECT_EQ(result.evaluated, result.planned);
  std::remove(plan.output_path.c_str());
}

TEST(Campaign, ResumeAfterCallbackThrowSkipsThePersistedRecord) {
  // The journal row is flushed before on_record fires, so a throwing
  // callback aborts the campaign but never loses its triggering record:
  // the resume restores it instead of re-evaluating it, and the final CSV
  // is byte-identical to an uninterrupted run.
  CampaignPlan reference_plan = multi_shard_plan();
  reference_plan.output_path = temp_csv("cbthrow_reference");
  Campaign(reference_plan).run();
  const std::string reference_bytes = slurp(reference_plan.output_path);

  CampaignPlan killed_plan = multi_shard_plan();
  killed_plan.output_path = temp_csv("cbthrow_killed");
  std::mutex key_mutex;
  std::string first_key;
  killed_plan.on_record = [&](const RunRecord& r) {
    {
      std::lock_guard<std::mutex> lock(key_mutex);
      if (first_key.empty()) {
        first_key = Campaign::tuple_key(r.benchmark, r.device, r.spec_text,
                                        r.items_per_thread);
      }
    }
    throw std::runtime_error("observer failure");
  };
  EXPECT_THROW(Campaign(killed_plan).run(), std::runtime_error);

  // The record whose callback threw is in the checkpoint.
  const ResultDb partial = ResultDb::load(killed_plan.output_path);
  ASSERT_GE(partial.size(), 1u);
  bool triggering_record_persisted = false;
  for (const auto& r : partial.records()) {
    if (Campaign::tuple_key(r.benchmark, r.device, r.spec_text, r.items_per_thread) ==
        first_key) {
      triggering_record_persisted = true;
    }
  }
  EXPECT_TRUE(triggering_record_persisted);

  CampaignPlan resume_plan = multi_shard_plan();
  resume_plan.output_path = killed_plan.output_path;
  const CampaignResult resumed = Campaign(resume_plan).run();
  EXPECT_EQ(resumed.restored, partial.size());
  EXPECT_EQ(resumed.evaluated, resumed.planned - partial.size());
  EXPECT_EQ(slurp(resume_plan.output_path), reference_bytes);

  std::remove(reference_plan.output_path.c_str());
  std::remove(resume_plan.output_path.c_str());
}

TEST(Campaign, TornTrailingJournalRowDoesNotBrickResume) {
  // A SIGKILL can land mid-append, leaving a truncated final line; the
  // resume must drop that row, re-evaluate its tuple and still end
  // byte-identical to an uninterrupted run.
  CampaignPlan plan = tiny_plan();
  plan.output_path = temp_csv("torn_ref");
  Campaign(plan).run();
  const std::string reference_bytes = slurp(plan.output_path);

  const std::string torn_path = temp_csv("torn");
  {
    std::ofstream out(torn_path, std::ios::binary);
    out << reference_bytes.substr(0, reference_bytes.size() - 9);  // tear the last row
  }
  CampaignPlan resume_plan = tiny_plan();
  resume_plan.output_path = torn_path;
  const CampaignResult resumed = Campaign(resume_plan).run();
  EXPECT_EQ(resumed.restored, resumed.planned - 1);
  EXPECT_EQ(resumed.evaluated, 1u);
  EXPECT_EQ(slurp(torn_path), reference_bytes);

  std::remove(plan.output_path.c_str());
  std::remove(torn_path.c_str());
}

TEST(Campaign, ResumeSkipsFullyRestoredShards) {
  CampaignPlan plan = multi_shard_plan();
  plan.output_path = temp_csv("skip_shards");
  Campaign(plan).run();

  std::atomic<std::size_t> re_evaluated{0};
  plan.on_record = [&re_evaluated](const RunRecord&) { ++re_evaluated; };
  const CampaignResult second = Campaign(plan).run();
  EXPECT_EQ(re_evaluated.load(), 0u);
  EXPECT_EQ(second.restored, second.planned);
  std::remove(plan.output_path.c_str());
}

TEST(Campaign, StaleCheckpointRowsAreDroppedFromTheFinalCsv) {
  // A checkpoint written by a wider plan, resumed by a narrower one: the
  // extra rows are counted as stale and do not survive the final rewrite.
  CampaignPlan wide = tiny_plan();
  wide.output_path = temp_csv("stale");
  Campaign(wide).run();  // 3 specs x 2 ipt = 6 rows

  CampaignPlan narrow = tiny_plan();
  narrow.output_path = wide.output_path;
  narrow.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{pragma::parse_approx("perfo(small:2)")};
  };
  const CampaignResult result = Campaign(narrow).run();
  EXPECT_EQ(result.planned, 2u);
  EXPECT_EQ(result.restored, 2u);
  EXPECT_EQ(result.stale, 4u);
  EXPECT_EQ(ResultDb::load(narrow.output_path).size(), 2u);
  std::remove(narrow.output_path.c_str());
}

TEST(Campaign, RejectsCheckpointWithForeignSchema) {
  const std::string path = temp_csv("schema");
  {
    std::ofstream out(path);
    out << "alpha,beta\n1,2\n";
  }
  CampaignPlan plan = tiny_plan();
  plan.output_path = path;
  EXPECT_THROW(Campaign(plan).run(), Error);
  std::remove(path.c_str());
}

TEST(Campaign, DeviceAliasesCollapseBeforeUniquenessCheck) {
  CampaignPlan plan = tiny_plan();
  plan.devices = {"v100", "nvidia"};  // both resolve to the v100 preset
  EXPECT_THROW(Campaign{plan}, Error);
}

TEST(Campaign, TupleKeyIsInjectiveOnDelimiterCollisions) {
  EXPECT_NE(Campaign::tuple_key("a", "b,c", "s", 1), Campaign::tuple_key("a,b", "c", "s", 1));
  EXPECT_NE(Campaign::tuple_key("a", "b", "s", 11), Campaign::tuple_key("a", "b", "s1", 1));
}

TEST(TupleEvaluator, MatchesCampaignRowsWhenPairsInterleave) {
  // One evaluator walks the plan backwards, so it switches (benchmark,
  // device) pair several times; every row must still be the one
  // Campaign::run writes for that tuple. A pair cache keyed by benchmark
  // alone would answer v100 tuples with the mi250x Explorer.
  const Campaign campaign(multi_shard_plan());
  const CampaignResult reference = Campaign(multi_shard_plan()).run();
  ASSERT_EQ(reference.db.size(), campaign.tuple_count());
  TupleEvaluator evaluator;
  for (std::size_t i = campaign.tuple_count(); i-- > 0;) {
    const Campaign::Tuple t = campaign.tuple(i);
    const RunRecord record =
        evaluator.evaluate(t.benchmark, t.device, t.spec, t.items_per_thread);
    EXPECT_EQ(row_text(record), row_text(reference.db.records()[i])) << "tuple " << i;
  }
}
