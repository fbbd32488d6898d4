// Tests for the serving layers on top of ResultStore:
//   * harness::TuningService — memoized queries never evaluate (asserted
//     via the evaluation counters), cold queries evaluate exactly the
//     missing tuples, identical concurrent queries coalesce, the bounded
//     admission queue rejects with backpressure, and draining is
//     round-robin fair across clients;
//   * service::protocol — frames and message bodies round-trip and
//     malformed input raises ProtocolError instead of misparsing;
//   * service::TuningServer / TuningClient — the socket transport
//     end-to-end in-process, plus a subprocess smoke of the hpacd binary
//     when ctest provides HPACD_BIN (the `service` label).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "harness/campaign.hpp"
#include "harness/result_store.hpp"
#include "harness/tuning_service.hpp"
#include "pragma/parser.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

using namespace hpac;
using namespace hpac::harness;

namespace {

TuningQuery query_for(const std::string& spec_text, std::uint64_t ipt = 8,
                      const std::string& benchmark = "blackscholes",
                      const std::string& device = "v100") {
  return TuningQuery{benchmark, device, spec_text, ipt};
}

/// Deterministic, scheduler-free evaluator: counts calls and records the
/// order tuples were evaluated in.
struct CountingEvaluator {
  std::mutex mutex;
  std::vector<std::string> order;  ///< spec_text per evaluation, in order
  std::atomic<std::uint64_t> calls{0};

  TuningServiceConfig config() {
    TuningServiceConfig cfg;
    cfg.evaluate_override = [this](const TuningQuery& q, const pragma::ApproxSpec&) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(q.spec_text);
      }
      ++calls;
      RunRecord r;
      r.speedup = 2.0;
      r.error_percent = 1.0;
      return r;
    };
    return cfg;
  }
};

/// A latch the evaluator blocks on until the test opens it — makes the
/// concurrency windows (coalescing, backpressure, fairness) deterministic.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait_open() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
  void await_entered(int count) {
    while (entered.load() < count) std::this_thread::yield();
  }
};

void await_queries(const TuningService& service, std::uint64_t count) {
  // stats() takes the service lock, so once it reports `count` queries the
  // count-th query has finished its admission step too (same critical
  // section) — the poll is a deterministic ordering point.
  while (service.stats().queries < count) std::this_thread::yield();
}

std::string temp_socket(const std::string& stem) {
  const std::string path = testing::TempDir() + "hpacd_" + stem + ".sock";
  std::remove(path.c_str());
  return path;
}

}  // namespace

// --- TuningService -----------------------------------------------------------

TEST(TuningService, ColdThenMemoizedWithoutReEvaluation) {
  ResultStore store;
  CountingEvaluator eval;
  TuningService service(store, eval.config());

  const TuningAnswer cold = service.query(query_for("perfo(small:2)"));
  ASSERT_EQ(cold.status, TuningStatus::kOk);
  EXPECT_FALSE(cold.memoized);
  EXPECT_DOUBLE_EQ(cold.record.speedup, 2.0);
  EXPECT_EQ(cold.record.benchmark, "blackscholes");
  EXPECT_EQ(cold.record.spec_text, pragma::parse_approx("perfo(small:2)").to_string());
  EXPECT_EQ(eval.calls.load(), 1u);

  // The repeat is served from the store: the evaluator is never invoked
  // again — the counter is the proof the scheduler was not touched.
  const TuningAnswer warm = service.query(query_for("perfo(small:2)"));
  ASSERT_EQ(warm.status, TuningStatus::kOk);
  EXPECT_TRUE(warm.memoized);
  EXPECT_EQ(eval.calls.load(), 1u);

  const TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.evaluated, 1u);
  EXPECT_EQ(stats.memoized, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TuningService, CanonicalizesDeviceAliasAndSpecSpelling) {
  ResultStore store;
  CountingEvaluator eval;
  TuningService service(store, eval.config());

  ASSERT_EQ(service.query(query_for("perfo(small:2)")).status, TuningStatus::kOk);
  // "nvidia" aliases the v100 preset; same tuple, so no second evaluation.
  const TuningAnswer aliased =
      service.query(query_for("perfo(small:2)", 8, "blackscholes", "nvidia"));
  ASSERT_EQ(aliased.status, TuningStatus::kOk);
  EXPECT_TRUE(aliased.memoized);
  EXPECT_EQ(aliased.record.device, "v100");
  EXPECT_EQ(eval.calls.load(), 1u);
}

TEST(TuningService, RealEvaluatorAnswersTheCampaignRowForTheCanonicalTuple) {
  ResultStore store;
  TuningService service(store);  // no evaluate_override: the real evaluator
  const TuningAnswer cold = service.query(
      query_for("#pragma approx perfo(small:2)", 8, "lavamd", "nvidia"));
  ASSERT_EQ(cold.status, TuningStatus::kOk) << cold.error;
  EXPECT_FALSE(cold.memoized);

  CampaignPlan plan;
  plan.benchmarks = {"lavamd"};
  plan.devices = {"v100"};
  plan.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{pragma::parse_approx("perfo(small:2)")};
  };
  plan.items_per_thread = {8};
  plan.num_threads = 1;
  const CampaignResult reference = Campaign(plan).run();
  ASSERT_EQ(reference.db.size(), 1u);
  const auto row_text = [](const RunRecord& record) {
    std::ostringstream os;
    write_csv_row(os, record.to_row());
    return os.str();
  };
  EXPECT_EQ(row_text(cold.record), row_text(reference.db.records().front()));
}

TEST(TuningService, AnswersFromRecordsACampaignWroteToTheSameStore) {
  ResultStore store;
  const pragma::ApproxSpec spec = pragma::parse_approx("perfo(large:4)");
  RunRecord seeded;
  seeded.benchmark = "blackscholes";
  seeded.device = "v100";
  seeded.spec_text = spec.to_string();
  seeded.set_spec(spec);
  seeded.items_per_thread = 8;
  seeded.speedup = 3.5;
  store.append(seeded);

  CountingEvaluator eval;
  TuningService service(store, eval.config());
  const TuningAnswer answer = service.query(query_for("perfo(large:4)"));
  ASSERT_EQ(answer.status, TuningStatus::kOk);
  EXPECT_TRUE(answer.memoized);
  EXPECT_DOUBLE_EQ(answer.record.speedup, 3.5);
  EXPECT_EQ(eval.calls.load(), 0u);  // the store had it; no evaluation at all
}

TEST(TuningService, MalformedQueriesErrorWithoutEvaluation) {
  ResultStore store;
  CountingEvaluator eval;
  TuningService service(store, eval.config());

  EXPECT_EQ(service.query(query_for("perfo(small:2)", 8, "no_such_app")).status,
            TuningStatus::kError);
  EXPECT_EQ(service.query(query_for("perfo(small:2)", 0)).status, TuningStatus::kError);
  EXPECT_EQ(service.query(query_for("perfo(small:2)", 8, "blackscholes", "no_such_gpu"))
                .status,
            TuningStatus::kError);
  EXPECT_EQ(service.query(query_for("not a spec")).status, TuningStatus::kError);

  const TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.evaluated, 0u);
  EXPECT_EQ(eval.calls.load(), 0u);
  EXPECT_FALSE(service.query(query_for("not a spec")).error.empty());
}

TEST(TuningService, IdenticalConcurrentQueriesCoalesce) {
  ResultStore store;
  Gate gate;
  TuningServiceConfig cfg;
  cfg.evaluate_override = [&gate](const TuningQuery&, const pragma::ApproxSpec&) {
    ++gate.entered;
    gate.wait_open();
    RunRecord r;
    r.speedup = 2.0;
    return r;
  };
  TuningService service(store, cfg);

  std::thread first([&] {
    const TuningAnswer a = service.query(query_for("perfo(small:2)"), "alice");
    EXPECT_EQ(a.status, TuningStatus::kOk);
    EXPECT_FALSE(a.memoized);
  });
  gate.await_entered(1);  // alice is mid-evaluation, tuple inflight

  std::thread second([&] {
    const TuningAnswer a = service.query(query_for("perfo(small:2)"), "bob");
    EXPECT_EQ(a.status, TuningStatus::kOk);
    EXPECT_FALSE(a.memoized);  // waited on alice's evaluation, not a snapshot hit
  });
  await_queries(service, 2);  // bob has joined the wait on the inflight tuple
  gate.release();
  first.join();
  second.join();

  const TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.evaluated, 1u);  // one evaluation served both
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TuningService, FullAdmissionQueueRejectsWithBackpressure) {
  ResultStore store;
  Gate gate;
  TuningServiceConfig cfg;
  cfg.max_pending = 1;
  cfg.evaluate_override = [&gate](const TuningQuery&, const pragma::ApproxSpec&) {
    ++gate.entered;
    gate.wait_open();
    return RunRecord{};
  };
  TuningService service(store, cfg);

  std::thread blocked([&] {
    EXPECT_EQ(service.query(query_for("perfo(small:2)"), "alice").status,
              TuningStatus::kOk);
  });
  gate.await_entered(1);  // the single admission slot is occupied

  const TuningAnswer rejected = service.query(query_for("perfo(large:4)"), "bob");
  EXPECT_EQ(rejected.status, TuningStatus::kRejected);
  EXPECT_FALSE(rejected.error.empty());

  gate.release();
  blocked.join();
  EXPECT_EQ(service.stats().rejected, 1u);

  // Backpressure means "retry later", and later works.
  EXPECT_EQ(service.query(query_for("perfo(large:4)"), "bob").status, TuningStatus::kOk);
}

TEST(TuningService, DrainsClientsRoundRobin) {
  ResultStore store;
  Gate gate;
  CountingEvaluator eval;
  TuningServiceConfig cfg = eval.config();
  const auto count_and_record = cfg.evaluate_override;
  cfg.evaluate_override = [&gate, count_and_record](const TuningQuery& q,
                                                    const pragma::ApproxSpec& spec) {
    const RunRecord r = count_and_record(q, spec);
    ++gate.entered;
    gate.wait_open();  // every evaluation blocks until the queue is staged
    return r;
  };
  TuningService service(store, cfg);

  // alice's first tuple starts evaluating and blocks; while it does, alice
  // floods two more tuples and bob asks one question.
  std::vector<std::thread> threads;
  threads.emplace_back([&] { service.query(query_for("perfo(small:2)"), "alice"); });
  gate.await_entered(1);
  threads.emplace_back([&] { service.query(query_for("perfo(small:4)"), "alice"); });
  await_queries(service, 2);
  threads.emplace_back([&] { service.query(query_for("perfo(small:8)"), "alice"); });
  await_queries(service, 3);
  threads.emplace_back([&] { service.query(query_for("perfo(large:2)"), "bob"); });
  await_queries(service, 4);

  gate.release();
  for (auto& t : threads) t.join();

  // Fair rotation: bob's single question is answered between alice's
  // queued tuples, not after all of them.
  const std::vector<std::string> expected = {
      pragma::parse_approx("perfo(small:2)").to_string(),
      pragma::parse_approx("perfo(small:4)").to_string(),
      pragma::parse_approx("perfo(large:2)").to_string(),
      pragma::parse_approx("perfo(small:8)").to_string(),
  };
  EXPECT_EQ(eval.order, expected);
  EXPECT_EQ(service.stats().evaluated, 4u);
}

// --- failure handling: deadlines, degraded answers, quarantine, read-only ----

namespace {

/// A store pre-seeded with one known blackscholes tuple (ipt 8) — the
/// candidate every degraded answer in these tests should fall back to.
RunRecord seed_known_tuple(ResultStore& store, std::uint64_t ipt = 8) {
  const pragma::ApproxSpec spec = pragma::parse_approx("perfo(small:2)");
  RunRecord seeded;
  seeded.benchmark = "blackscholes";
  seeded.device = "v100";
  seeded.spec_text = spec.to_string();
  seeded.set_spec(spec);
  seeded.items_per_thread = ipt;
  seeded.speedup = 4.0;
  seeded.feasible = true;
  store.append(seeded);
  return seeded;
}

TuningQuery with_deadline(TuningQuery query, std::uint32_t deadline_ms) {
  query.deadline_ms = deadline_ms;
  return query;
}

}  // namespace

TEST(TuningService, DeadlineExceededWhenEvaluatorIsBusyAndStoreIsEmpty) {
  ResultStore store;
  Gate gate;
  TuningServiceConfig cfg;
  cfg.evaluate_override = [&gate](const TuningQuery&, const pragma::ApproxSpec&) {
    ++gate.entered;
    gate.wait_open();
    RunRecord r;
    r.speedup = 2.0;
    return r;
  };
  TuningService service(store, cfg);

  std::thread blocked([&] {
    EXPECT_EQ(service.query(query_for("perfo(small:2)"), "alice").status,
              TuningStatus::kOk);
  });
  gate.await_entered(1);  // the evaluator is wedged on alice's tuple

  // bob's deadline fires while alice's evaluation holds the evaluator; the
  // store knows nothing, so there is no degraded fallback either.
  const TuningAnswer late =
      service.query(with_deadline(query_for("perfo(large:4)"), 30), "bob");
  EXPECT_EQ(late.status, TuningStatus::kDeadlineExceeded);
  EXPECT_FALSE(late.error.empty());

  gate.release();
  blocked.join();
  const TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST(TuningService, MissedDeadlineDegradesToNearestKnownConfig) {
  ResultStore store;
  const RunRecord seeded = seed_known_tuple(store, /*ipt=*/8);
  Gate gate;
  TuningServiceConfig cfg;
  cfg.evaluate_override = [&gate](const TuningQuery&, const pragma::ApproxSpec&) {
    ++gate.entered;
    gate.wait_open();
    RunRecord r;
    r.speedup = 2.0;
    return r;
  };
  TuningService service(store, cfg);

  std::thread blocked([&] {
    EXPECT_EQ(service.query(query_for("perfo(large:4)", 16), "alice").status,
              TuningStatus::kOk);
  });
  gate.await_entered(1);

  // Same benchmark, different ipt: past the deadline the service answers
  // with the seeded neighbor instead of stalling or refusing.
  const TuningAnswer degraded =
      service.query(with_deadline(query_for("perfo(small:2)", 64), 30), "bob");
  ASSERT_EQ(degraded.status, TuningStatus::kDegraded);
  EXPECT_FALSE(degraded.memoized);
  EXPECT_EQ(degraded.record.items_per_thread, seeded.items_per_thread);
  EXPECT_DOUBLE_EQ(degraded.record.speedup, seeded.speedup);
  EXPECT_FALSE(degraded.error.empty());  // explains why the exact tuple is missing

  gate.release();
  blocked.join();
  const TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);  // the deadline is what degraded it
}

TEST(TuningService, MemoizedAnswersIgnoreImpossibleDeadlines) {
  ResultStore store;
  seed_known_tuple(store, /*ipt=*/8);
  CountingEvaluator eval;
  TuningService service(store, eval.config());

  // Already-known tuples are always in time — even a 0-slack deadline.
  const TuningAnswer warm =
      service.query(with_deadline(query_for("perfo(small:2)", 8), 1));
  ASSERT_EQ(warm.status, TuningStatus::kOk);
  EXPECT_TRUE(warm.memoized);
  EXPECT_EQ(eval.calls.load(), 0u);
}

TEST(TuningService, ThrowingEvaluationsAreQuarantinedAfterTheRetryBudget) {
  ResultStore store;
  std::atomic<int> attempts{0};
  TuningServiceConfig cfg;
  cfg.max_eval_failures = 2;
  cfg.evaluate_override = [&attempts](const TuningQuery&, const pragma::ApproxSpec&) {
    ++attempts;
    throw Error("injected evaluation failure");
    return RunRecord{};  // unreachable
  };
  TuningService service(store, cfg);

  // The failing tuple exhausts its retry budget without ever escaping the
  // service as an exception; with an empty store there is no fallback.
  const TuningAnswer first = service.query(query_for("perfo(small:2)"));
  EXPECT_EQ(first.status, TuningStatus::kError);
  EXPECT_NE(first.error.find("quarantine"), std::string::npos) << first.error;
  EXPECT_NE(first.error.find("injected evaluation failure"), std::string::npos)
      << first.error;
  EXPECT_EQ(attempts.load(), 2);

  // Quarantine is remembered: the repeat answers without re-evaluating.
  const TuningAnswer repeat = service.query(query_for("perfo(small:2)"));
  EXPECT_EQ(repeat.status, TuningStatus::kError);
  EXPECT_EQ(attempts.load(), 2);

  const TuningService::Stats stats = service.stats();
  EXPECT_EQ(stats.eval_failures, 2u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(store.size(), 0u);

  // Once the store knows a neighbor, the quarantined tuple degrades to it
  // instead of erroring — availability improves as knowledge arrives.
  seed_known_tuple(store, /*ipt=*/16);
  const TuningAnswer degraded = service.query(query_for("perfo(small:2)"));
  EXPECT_EQ(degraded.status, TuningStatus::kDegraded);
  EXPECT_EQ(degraded.record.items_per_thread, 16u);
  EXPECT_EQ(attempts.load(), 2);  // still never re-evaluated
}

TEST(TuningService, ReadOnlyServiceServesKnownTuplesAndDegradesColdOnes) {
  ResultStore store;
  seed_known_tuple(store, /*ipt=*/8);
  CountingEvaluator eval;
  TuningServiceConfig cfg = eval.config();
  cfg.read_only = true;
  TuningService service(store, cfg);

  const TuningAnswer exact = service.query(query_for("perfo(small:2)", 8));
  ASSERT_EQ(exact.status, TuningStatus::kOk);
  EXPECT_TRUE(exact.memoized);

  const TuningAnswer cold = service.query(query_for("perfo(small:2)", 64));
  ASSERT_EQ(cold.status, TuningStatus::kDegraded);
  EXPECT_EQ(cold.record.items_per_thread, 8u);
  EXPECT_FALSE(cold.error.empty());

  // A (valid) benchmark the store has never seen has nothing to degrade to.
  const TuningAnswer unknown = service.query(query_for("perfo(small:2)", 8, "lavamd"));
  EXPECT_EQ(unknown.status, TuningStatus::kError);
  EXPECT_FALSE(unknown.error.empty());

  EXPECT_EQ(eval.calls.load(), 0u);  // read-only: the evaluator is never touched
  EXPECT_EQ(store.size(), 1u);
}

// --- wire protocol -----------------------------------------------------------

TEST(Protocol, ScalarsRoundTripLittleEndian) {
  std::string body;
  service::put_u16(body, 0xBEEF);
  service::put_u32(body, 0xDEADBEEFu);
  service::put_u64(body, 0x0123456789ABCDEFull);
  service::put_f64(body, -1234.5);
  service::put_string(body, std::string("nul\0inside", 10));

  EXPECT_EQ(static_cast<unsigned char>(body[0]), 0xEF);  // low byte first
  std::size_t offset = 0;
  EXPECT_EQ(service::get_u16(body, offset), 0xBEEF);
  EXPECT_EQ(service::get_u32(body, offset), 0xDEADBEEFu);
  EXPECT_EQ(service::get_u64(body, offset), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(service::get_f64(body, offset), -1234.5);
  EXPECT_EQ(service::get_string(body, offset), std::string("nul\0inside", 10));
  EXPECT_EQ(offset, body.size());
  EXPECT_THROW(service::get_u16(body, offset), service::ProtocolError);
}

TEST(Protocol, FramesRoundTripAndRejectForeignVersions) {
  const std::string wire = service::encode_frame(service::MessageType::kStatsRequest, "xy");
  // [u32 len] then the payload decode_frame parses.
  ASSERT_GT(wire.size(), 4u);
  const service::Frame frame = service::decode_frame(std::string_view(wire).substr(4));
  EXPECT_EQ(frame.type, service::MessageType::kStatsRequest);
  EXPECT_EQ(frame.body, "xy");

  std::string foreign;
  service::put_u16(foreign, service::kProtocolVersion + 1);
  service::put_u16(foreign, static_cast<std::uint16_t>(service::MessageType::kStatsRequest));
  EXPECT_THROW(service::decode_frame(foreign), service::ProtocolError);
  EXPECT_THROW(service::decode_frame("a"), service::ProtocolError);  // truncated header
}

TEST(Protocol, QueryAndStatsRoundTrip) {
  const TuningQuery query = query_for("memo(out:3:4:0.3) level(warp)", 16, "lulesh", "mi250x");
  const TuningQuery decoded = service::decode_query(service::encode_query(query));
  EXPECT_EQ(decoded.benchmark, query.benchmark);
  EXPECT_EQ(decoded.device, query.device);
  EXPECT_EQ(decoded.spec_text, query.spec_text);
  EXPECT_EQ(decoded.items_per_thread, query.items_per_thread);

  const TuningService::Stats stats{10, 4, 3, 2, 1};
  const TuningService::Stats back = service::decode_stats(service::encode_stats(stats));
  EXPECT_EQ(back.queries, 10u);
  EXPECT_EQ(back.memoized, 4u);
  EXPECT_EQ(back.evaluated, 3u);
  EXPECT_EQ(back.coalesced, 2u);
  EXPECT_EQ(back.rejected, 1u);
}

TEST(Protocol, V2DeadlineAndFailureCountersRoundTrip) {
  // The v2 additions: a query's deadline survives the wire...
  TuningQuery query = query_for("perfo(small:2)", 8);
  query.deadline_ms = 1500;
  EXPECT_EQ(service::decode_query(service::encode_query(query)).deadline_ms, 1500u);

  // ...and so do all the failure-handling counters.
  const TuningService::Stats stats{10, 4, 3, 2, 1, 9, 8, 7, 6};
  const TuningService::Stats back = service::decode_stats(service::encode_stats(stats));
  EXPECT_EQ(back.degraded, 9u);
  EXPECT_EQ(back.deadline_exceeded, 8u);
  EXPECT_EQ(back.eval_failures, 7u);
  EXPECT_EQ(back.quarantined, 6u);
}

TEST(Protocol, DegradedAnswersCarryTheirSubstituteRecord) {
  TuningAnswer degraded;
  degraded.status = TuningStatus::kDegraded;
  degraded.record.benchmark = "blackscholes";
  degraded.record.items_per_thread = 8;
  degraded.record.speedup = 4.0;
  degraded.error = "deadline exceeded; nearest known config substituted";

  const TuningAnswer back = service::decode_answer(service::encode_answer(degraded));
  EXPECT_EQ(back.status, TuningStatus::kDegraded);
  EXPECT_EQ(back.record.benchmark, "blackscholes");
  EXPECT_EQ(back.record.items_per_thread, 8u);
  EXPECT_DOUBLE_EQ(back.record.speedup, 4.0);
  EXPECT_EQ(back.error, degraded.error);

  // kDeadlineExceeded carries no record, like kRejected/kError.
  TuningAnswer late;
  late.status = TuningStatus::kDeadlineExceeded;
  late.error = "deadline exceeded before evaluation";
  const TuningAnswer late_back = service::decode_answer(service::encode_answer(late));
  EXPECT_EQ(late_back.status, TuningStatus::kDeadlineExceeded);
  EXPECT_EQ(late_back.error, late.error);
}

TEST(Protocol, AnswerRoundTripsEveryRecordField) {
  TuningAnswer answer;
  answer.status = TuningStatus::kOk;
  answer.memoized = true;
  answer.record.benchmark = "kmeans";
  answer.record.device = "v100";
  answer.record.technique = pragma::Technique::kTafMemo;
  answer.record.spec_text = "memo(out:3:4:0.3)";
  answer.record.level = pragma::HierarchyLevel::kWarp;
  answer.record.items_per_thread = 32;
  answer.record.feasible = false;
  answer.record.note = "infeasible: AC state";
  answer.record.speedup = 1.25;
  answer.record.error_percent = 0.75;
  answer.record.approx_ratio = 0.5;
  answer.record.kernel_seconds = 0.001;
  answer.record.end_to_end_seconds = 0.01;
  answer.record.iterations = 7;
  answer.record.baseline_iterations = 9;
  answer.record.threshold = 0.3;
  answer.record.history_size = 3;
  answer.record.prediction_size = 4;
  answer.record.table_size = 8;
  answer.record.tables_per_warp = 2;
  answer.record.perfo_kind = "small";
  answer.record.perfo_stride = 2;
  answer.record.perfo_fraction = 0.25;

  const TuningAnswer back = service::decode_answer(service::encode_answer(answer));
  EXPECT_EQ(back.status, TuningStatus::kOk);
  EXPECT_TRUE(back.memoized);
  // Field-by-field identity via the CSV row (covers every column).
  EXPECT_EQ(back.record.to_row(), answer.record.to_row());

  TuningAnswer rejected;
  rejected.status = TuningStatus::kRejected;
  rejected.error = "queue full";
  const TuningAnswer rejected_back =
      service::decode_answer(service::encode_answer(rejected));
  EXPECT_EQ(rejected_back.status, TuningStatus::kRejected);
  EXPECT_EQ(rejected_back.error, "queue full");

  // Truncation anywhere in the body is a ProtocolError, not a misparse.
  const std::string body = service::encode_answer(answer);
  EXPECT_THROW(service::decode_answer(std::string_view(body).substr(0, body.size() / 2)),
               service::ProtocolError);
}

TEST(Protocol, AnswerBytesArePinned) {
  // Protocol v2's record body, byte for byte: a codec refactor that
  // reorders fields or changes a field's wire width breaks deployed
  // clients, however well it round-trips against itself.
  TuningAnswer answer;
  answer.status = TuningStatus::kOk;
  answer.memoized = true;
  RunRecord& r = answer.record;
  r.benchmark = "leukocyte";
  r.device = "mi250x";
  r.technique = pragma::Technique::kPerforation;
  r.spec_text = "perfo(large:3) level(block)";
  r.level = pragma::HierarchyLevel::kBlock;
  r.items_per_thread = 9000000000000ull;
  r.feasible = false;
  r.note = "torn\nrow, \"quoted\"";
  r.speedup = 1.0 / 3.0;
  r.error_percent = 6.02214076e23;
  r.approx_ratio = 0.125;
  r.kernel_seconds = 1.5e-4;
  r.end_to_end_seconds = 2.25e-3;
  r.iterations = 42;
  r.baseline_iterations = 60;
  r.threshold = 0.5;
  r.history_size = 3;
  r.prediction_size = 8;
  r.table_size = 4;
  r.tables_per_warp = 16;
  r.perfo_kind = "large";
  r.perfo_stride = -3;
  r.perfo_fraction = 0.3;

  std::string hex;
  for (const unsigned char byte : service::encode_answer(answer)) {
    hex += strings::format("%02x", byte);
  }
  EXPECT_EQ(hex,
            "00010000000001090000006c65756b6f63797465060000006d69323530780300"
            "1b000000706572666f286c617267653a3329206c6576656c28626c6f636b2902"
            "000090cd792f0800000012000000746f726e0a726f772c202271756f74656422"
            "555555555555d53f17c557ca85e1df44000000000000c03f613255302aa9233f"
            "3bdf4f8d976e623f00000000000045400000000000004e40000000000000e03f"
            "03000000080000000400000010000000050000006c61726765fdffffff333333"
            "333333d33f");
  EXPECT_EQ(service::decode_answer(service::encode_answer(answer)).record.to_row(),
            r.to_row());
}

// --- socket transport (in-process server) ------------------------------------

TEST(TuningServer, ServesColdAndMemoizedQueriesOverTheSocket) {
  const std::string socket_path = temp_socket("inprocess");
  ResultStore store;
  CountingEvaluator eval;
  service::TuningServer::Options options;
  options.socket_path = socket_path;
  options.service = eval.config();
  service::TuningServer server(store, options);
  server.start();

  {
    service::TuningClient client(socket_path);
    const TuningAnswer cold = client.query(query_for("perfo(small:2)"));
    ASSERT_EQ(cold.status, TuningStatus::kOk);
    EXPECT_FALSE(cold.memoized);
    EXPECT_DOUBLE_EQ(cold.record.speedup, 2.0);

    const TuningAnswer warm = client.query(query_for("perfo(small:2)"));
    ASSERT_EQ(warm.status, TuningStatus::kOk);
    EXPECT_TRUE(warm.memoized);

    // A malformed query errors over the wire instead of dropping the
    // connection: the same client keeps working afterwards.
    EXPECT_EQ(client.query(query_for("perfo(small:2)", 8, "no_such_app")).status,
              TuningStatus::kError);

    // A second connection is a distinct fairness client sharing the store.
    service::TuningClient other(socket_path);
    EXPECT_TRUE(other.query(query_for("perfo(small:2)")).memoized);

    const TuningService::Stats stats = client.stats();
    EXPECT_EQ(stats.queries, 4u);
    EXPECT_EQ(stats.evaluated, 1u);
    EXPECT_EQ(stats.memoized, 2u);
  }
  EXPECT_EQ(eval.calls.load(), 1u);

  // Graceful shutdown through the protocol.
  service::TuningClient(socket_path).shutdown_server();
  server.wait();
  server.stop();
  EXPECT_THROW(service::TuningClient probe(socket_path), Error);  // socket removed
}

TEST(TuningServer, StopWithoutClientsIsCleanAndIdempotent) {
  const std::string socket_path = temp_socket("idle");
  ResultStore store;
  service::TuningServer server(store, {socket_path, 4, {}});
  server.start();
  server.stop();
  server.stop();  // idempotent

  // The path is free again for a fresh server.
  service::TuningServer again(store, {socket_path, 4, {}});
  again.start();
  again.stop();
}

// --- hpacd subprocess smoke (ctest label: service) ---------------------------

TEST(Hpacd, DaemonAnswersQueriesAndShutsDownGracefully) {
  const char* binary = std::getenv("HPACD_BIN");
  if (binary == nullptr || *binary == '\0') {
    GTEST_SKIP() << "HPACD_BIN not set (examples not built)";
  }
  const std::string socket_path = temp_socket("smoke");
  const std::string store_path = testing::TempDir() + "hpacd_smoke_store.csv";
  std::remove(store_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    const std::string socket_arg = "--socket=" + socket_path;
    const std::string store_arg = "--store=" + store_path;
    execl(binary, binary, socket_arg.c_str(), store_arg.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Wait for the daemon to listen (it prints after binding; we just retry
  // the connect). Budget is generous: CI machines are slow.
  bool connected = false;
  for (int attempt = 0; attempt < 200 && !connected; ++attempt) {
    try {
      service::TuningClient probe(socket_path);
      connected = true;
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_TRUE(connected) << "daemon never started listening";

  {
    service::TuningClient client(socket_path);
    // Cold: a real evaluation through Explorer/Scheduler inside the daemon.
    const TuningAnswer cold = client.query(query_for("perfo(small:2)"));
    ASSERT_EQ(cold.status, TuningStatus::kOk) << cold.error;
    EXPECT_FALSE(cold.memoized);
    EXPECT_GT(cold.record.speedup, 0.0);

    const TuningAnswer warm = client.query(query_for("perfo(small:2)"));
    ASSERT_EQ(warm.status, TuningStatus::kOk);
    EXPECT_TRUE(warm.memoized);

    const TuningService::Stats stats = client.stats();
    EXPECT_GE(stats.queries, 2u);
    EXPECT_EQ(stats.evaluated, 1u);
    EXPECT_GE(stats.memoized, 1u);

    client.shutdown_server();
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "daemon did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The journal the daemon leaves behind reloads as a store with exactly
  // the evaluated tuple.
  ResultStore reloaded(store_path);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.snapshot().contains_key(Campaign::tuple_key(
      "blackscholes", "v100", pragma::parse_approx("perfo(small:2)").to_string(), 8)));
}
