// Tests for harness::ResultStore, the snapshot-readable persistence layer
// under Campaign and TuningService. The load-bearing properties:
//   * snapshots are immutable, consistent values — concurrent readers see
//     a version whose contents never shift under them while the writer
//     appends (the sharded cases run under ThreadSanitizer in CI), and a
//     snapshot keeps serving after its store is gone;
//   * the journal stays byte-compatible with the pre-store Campaign CSV:
//     a writer killed mid-append leaves a journal that reloads (torn tail
//     dropped) and finalizes byte-identical to an uninterrupted run;
//   * append/append_if_absent agree on tuple identity with Campaign keys.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "harness/campaign.hpp"
#include "harness/result_store.hpp"

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

std::string temp_csv(const std::string& stem) {
  const std::string path = testing::TempDir() + "hpac_store_" + stem + ".csv";
  std::remove(path.c_str());
  return path;
}

/// A distinct, fully populated record per index: every tuple key differs
/// (spec text varies by stride) and the float fields are recognizable.
RunRecord make_record(std::uint64_t i) {
  RunRecord r;
  r.benchmark = "blackscholes";
  r.device = "v100";
  r.technique = pragma::Technique::kPerforation;
  r.spec_text = "perfo(small:" + std::to_string(i + 2) + ")";
  r.items_per_thread = 8;
  r.speedup = 1.0 + 0.01 * static_cast<double>(i);
  r.error_percent = 0.5;
  r.perfo_kind = "small";
  r.perfo_stride = static_cast<int>(i + 2);
  return r;
}

}  // namespace

TEST(ResultStore, StartsEmptyAndVersionsAppends) {
  ResultStore store;  // in-memory
  EXPECT_FALSE(store.persistent());
  EXPECT_EQ(store.version(), 0u);
  EXPECT_TRUE(store.snapshot().empty());

  EXPECT_EQ(store.append(make_record(0)), 1u);
  EXPECT_EQ(store.append(make_record(1)), 2u);
  const ResultStore::Snapshot snap = store.snapshot();
  EXPECT_EQ(snap.version(), 2u);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at(0).spec_text, "perfo(small:2)");
  EXPECT_EQ(snap.at(1).spec_text, "perfo(small:3)");
}

TEST(ResultStore, FindUsesCampaignTupleIdentity) {
  ResultStore store;
  store.append(make_record(3));
  const ResultStore::Snapshot snap = store.snapshot();
  const RunRecord* hit = snap.find("blackscholes", "v100", "perfo(small:5)", 8);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->perfo_stride, 5);
  EXPECT_EQ(snap.find_key(Campaign::tuple_key("blackscholes", "v100", "perfo(small:5)", 8)),
            hit);
  EXPECT_EQ(snap.find("blackscholes", "v100", "perfo(small:5)", 16), nullptr);
  EXPECT_EQ(snap.find("blackscholes", "mi250x", "perfo(small:5)", 8), nullptr);
}

TEST(ResultStore, DuplicateTuplesThrowOrNoOp) {
  ResultStore store;
  EXPECT_NE(store.append_if_absent(make_record(0)), 0u);
  EXPECT_EQ(store.append_if_absent(make_record(0)), 0u);  // silently kept first
  EXPECT_THROW(store.append(make_record(0)), Error);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.version(), 1u);  // failed appends publish nothing
}

TEST(ResultStore, SnapshotsAreImmutableValues) {
  ResultStore store;
  store.append(make_record(0));
  const ResultStore::Snapshot old = store.snapshot();
  const RunRecord* pinned = old.find_key(ResultStore::key_of(make_record(0)));
  ASSERT_NE(pinned, nullptr);

  for (std::uint64_t i = 1; i < 200; ++i) store.append(make_record(i));

  // The old snapshot still shows exactly what it showed at capture time,
  // and the interior pointer it handed out is still the same record.
  EXPECT_EQ(old.version(), 1u);
  EXPECT_EQ(old.size(), 1u);
  EXPECT_EQ(old.find_key(ResultStore::key_of(make_record(0))), pinned);
  EXPECT_EQ(old.find_key(ResultStore::key_of(make_record(7))), nullptr);
  // The bound comes from the snapshot, not the shared log that now holds
  // 200 records.
  EXPECT_EQ(&old.at(0), pinned);
  EXPECT_THROW(old.at(1), Error);
  std::size_t visited = 0;
  old.for_each([&visited](const RunRecord&) { ++visited; });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(store.snapshot().size(), 200u);
}

TEST(ResultStore, SnapshotOutlivesItsStore) {
  ResultStore::Snapshot snap;
  {
    ResultStore store;
    for (std::uint64_t i = 0; i < 3; ++i) store.append(make_record(i));
    snap = store.snapshot();
  }
  ASSERT_EQ(snap.size(), 3u);
  const RunRecord* hit = snap.find_key(ResultStore::key_of(make_record(1)));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->perfo_stride, 3);
  EXPECT_EQ(snap.at(2).spec_text, "perfo(small:4)");
  std::vector<int> strides;
  snap.for_each([&strides](const RunRecord& r) { strides.push_back(r.perfo_stride); });
  EXPECT_EQ(strides, (std::vector<int>{2, 3, 4}));
  const ResultDb db = snap.to_db();
  ASSERT_EQ(db.size(), 3u);
  EXPECT_EQ(db.records()[0].spec_text, "perfo(small:2)");
}

TEST(ResultStore, ConcurrentReadersSeeConsistentVersions) {
  // The writer appends while readers continuously snapshot and audit the
  // invariant version == size == number of distinct specs reachable via
  // the index. Under TSan this also proves the read path (which never
  // takes the writer lock) is race-free against the publishing writer.
  ResultStore store;
  constexpr std::uint64_t kAppends = 400;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> inconsistencies{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ResultStore::Snapshot snap = store.snapshot();
        if (snap.version() < last_version) ++inconsistencies;  // must be monotonic
        last_version = snap.version();
        if (snap.version() != snap.size()) ++inconsistencies;
        // Every record present in the vector must be reachable through
        // the index of the *same* snapshot.
        std::uint64_t reachable = 0;
        snap.for_each([&](const RunRecord& rec) {
          if (snap.find_key(ResultStore::key_of(rec)) != nullptr) ++reachable;
        });
        if (reachable != snap.size()) ++inconsistencies;
      }
    });
  }

  for (std::uint64_t i = 0; i < kAppends; ++i) store.append(make_record(i));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(inconsistencies.load(), 0u);
  EXPECT_EQ(store.version(), kAppends);
}

TEST(ResultStore, JournalMatchesCanonicalCsvFormat) {
  const std::string path = temp_csv("journal_format");
  ResultDb reference;
  {
    ResultStore store(path);
    for (std::uint64_t i = 0; i < 5; ++i) {
      store.append(make_record(i));
      reference.add(make_record(i));
    }
  }  // destroyed without finalize: the raw journal remains

  // The journal of an un-killed writer is already the canonical CSV.
  const std::string canonical = temp_csv("journal_format_ref");
  reference.save(canonical);
  EXPECT_EQ(slurp(path), slurp(canonical));
}

TEST(ResultStore, RestoresJournalAndDropsTornTail) {
  const std::string path = temp_csv("torn_tail");
  std::string healthy;
  {
    ResultStore store(path);
    for (std::uint64_t i = 0; i < 4; ++i) store.append(make_record(i));
    healthy = slurp(path);
  }

  // Simulate a writer killed mid-append: truncate the last row in half.
  const std::size_t cut = healthy.rfind(",perfo");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << healthy.substr(0, cut);
  }

  ResultStore reopened(path);
  EXPECT_EQ(reopened.load_stats().restored, 3u);  // torn row 3 dropped
  EXPECT_EQ(reopened.load_stats().duplicates, 0u);
  EXPECT_EQ(reopened.version(), 3u);
  EXPECT_FALSE(reopened.snapshot().contains_key(ResultStore::key_of(make_record(3))));

  // Re-appending the lost record continues the same journal, and the
  // finalized CSV is byte-identical to a never-interrupted run.
  reopened.append(make_record(3));
  reopened.finalize(reopened.snapshot().to_db());
  EXPECT_EQ(slurp(path), healthy);
}

TEST(ResultStore, TornTailIsTruncatedOutOfTheFileBeforeAppendsResume) {
  const std::string path = temp_csv("torn_truncate");
  std::string healthy;
  {
    ResultStore store(path);
    for (std::uint64_t i = 0; i < 3; ++i) store.append(make_record(i));
    healthy = slurp(path);
  }
  const std::size_t cut = healthy.rfind(",perfo");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << healthy.substr(0, cut);
  }

  // Reopening repairs the FILE, not just the in-memory index: the half
  // row is gone from disk the moment the store is constructed. Without
  // this, the next append would glue onto the torn row and corrupt a
  // mid-file line that every later reload mis-parses.
  {
    ResultStore reopened(path);
    const std::string repaired = slurp(path);
    EXPECT_EQ(repaired.size(), healthy.rfind('\n', cut) + 1);
    EXPECT_EQ(repaired.back(), '\n');
    reopened.append(make_record(2));
  }
  EXPECT_EQ(slurp(path), healthy);  // byte-identical to the uninterrupted run

  // A file torn before any complete row survives degenerates to a fresh
  // journal (header rewritten), not a parse error.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "benchmark,half a hea";
  }
  ResultStore fresh(path);
  EXPECT_EQ(fresh.load_stats().restored, 0u);
  fresh.append(make_record(0));
  ResultStore audit(path);
  EXPECT_EQ(audit.load_stats().restored, 1u);
}

TEST(ResultStore, ReadOnlyStoreServesButNeverWrites) {
  const std::string path = temp_csv("read_only");
  {
    ResultStore writer(path);
    for (std::uint64_t i = 0; i < 3; ++i) writer.append(make_record(i));
  }
  const std::string before = slurp(path);

  ResultStore ro(path, /*read_only=*/true);
  EXPECT_TRUE(ro.read_only());
  EXPECT_EQ(ro.load_stats().restored, 3u);
  EXPECT_TRUE(ro.snapshot().contains_key(ResultStore::key_of(make_record(1))));
  EXPECT_THROW(ro.append(make_record(9)), Error);
  EXPECT_THROW(ro.append_if_absent(make_record(9)), Error);
  EXPECT_THROW(ro.finalize(ro.snapshot().to_db()), Error);
  EXPECT_EQ(slurp(path), before);  // not a byte changed, not even a truncation

  // Read-only without an existing journal is a configuration error, not
  // an empty store silently serving nothing.
  EXPECT_THROW(ResultStore missing(temp_csv("read_only_missing"), /*read_only=*/true),
               Error);
}

TEST(ResultStore, ReadOnlyStoreLeavesATornTailInPlace) {
  const std::string path = temp_csv("read_only_torn");
  std::string healthy;
  {
    ResultStore writer(path);
    for (std::uint64_t i = 0; i < 3; ++i) writer.append(make_record(i));
    healthy = slurp(path);
  }
  const std::size_t cut = healthy.rfind(",perfo");
  ASSERT_NE(cut, std::string::npos);
  const std::string torn = healthy.substr(0, cut);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << torn;
  }

  // The index drops the torn row (it cannot be served), but the file —
  // possibly another process's live journal — is left exactly as found.
  ResultStore ro(path, /*read_only=*/true);
  EXPECT_EQ(ro.load_stats().restored, 2u);
  EXPECT_FALSE(ro.snapshot().contains_key(ResultStore::key_of(make_record(2))));
  EXPECT_EQ(slurp(path), torn);
}

TEST(ResultStore, FinalizeIsTerminal) {
  const std::string path = temp_csv("finalize");
  ResultStore store(path);
  store.append(make_record(0));
  store.finalize(store.snapshot().to_db());
  EXPECT_THROW(store.append(make_record(1)), Error);
  // The published snapshot keeps serving after finalize.
  EXPECT_TRUE(store.snapshot().contains_key(ResultStore::key_of(make_record(0))));
}

TEST(ResultStore, ToDbPreservesAppendOrder) {
  ResultStore store;
  for (std::uint64_t i = 0; i < 16; ++i) store.append(make_record(15 - i));
  const ResultDb db = store.snapshot().to_db();
  ASSERT_EQ(db.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(db.records()[i].perfo_stride, static_cast<int>(17 - i));
  }
}
