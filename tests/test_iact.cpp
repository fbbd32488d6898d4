// Tests for iACT tables: lookup, insertion, replacement policies and
// storage accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "approx/iact.hpp"
#include "approx/taf.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

using namespace hpac;
using namespace hpac::approx;

namespace {
struct TableFixture {
  std::vector<double> storage;
  IactTable make(int tsize, int in_dims, int out_dims,
                 Replacement policy = Replacement::kRoundRobin) {
    storage.assign(IactTable::storage_doubles(tsize, in_dims, out_dims), 0.0);
    return IactTable(tsize, in_dims, out_dims, policy, storage);
  }
};
}  // namespace

TEST(Euclidean, MatchesHandComputation) {
  const std::vector<double> a{0, 0, 0};
  const std::vector<double> b{1, 2, 2};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(euclidean_distance(a, a), 0.0);
}

TEST(Euclidean, SizeMismatchThrows) {
  const std::vector<double> a{1};
  const std::vector<double> b{1, 2};
  EXPECT_THROW(euclidean_distance(a, b), Error);
}

TEST(Iact, EmptyTableHasNoMatch) {
  TableFixture f;
  auto table = f.make(4, 2, 1);
  const std::vector<double> probe{1, 1};
  EXPECT_FALSE(table.find_nearest(probe).valid());
  EXPECT_EQ(table.valid_count(), 0);
}

TEST(Iact, ExactHitAfterInsert) {
  TableFixture f;
  auto table = f.make(4, 2, 1);
  const std::vector<double> in{1, 2};
  const std::vector<double> out{42};
  table.insert(in, out);
  const auto match = table.find_nearest(in);
  ASSERT_TRUE(match.valid());
  EXPECT_DOUBLE_EQ(match.distance, 0.0);
  EXPECT_DOUBLE_EQ(table.output_at(match.index)[0], 42.0);
}

TEST(Iact, NearestOfSeveralEntries) {
  TableFixture f;
  auto table = f.make(4, 1, 1);
  for (double x : {0.0, 10.0, 20.0}) {
    const std::vector<double> in{x};
    const std::vector<double> out{x * 2};
    table.insert(in, out);
  }
  const std::vector<double> probe{12.0};
  const auto match = table.find_nearest(probe);
  ASSERT_TRUE(match.valid());
  EXPECT_DOUBLE_EQ(match.distance, 2.0);
  EXPECT_DOUBLE_EQ(table.output_at(match.index)[0], 20.0);
}

TEST(Iact, RoundRobinEvictsOldestSlot) {
  TableFixture f;
  auto table = f.make(2, 1, 1);
  const auto ins = [&table](double x) {
    const std::vector<double> in{x};
    const std::vector<double> out{x};
    table.insert(in, out);
  };
  ins(1);
  ins(2);
  ins(3);  // evicts slot 0 (value 1)
  const std::vector<double> probe{1.0};
  const auto match = table.find_nearest(probe);
  EXPECT_DOUBLE_EQ(table.input_at(match.index)[0], 2.0);
  EXPECT_EQ(table.valid_count(), 2);
}

TEST(Iact, ClockSparesRecentlyUsedEntries) {
  TableFixture f;
  auto table = f.make(2, 1, 1, Replacement::kClock);
  const auto ins = [&table](double x) {
    const std::vector<double> in{x};
    const std::vector<double> out{x};
    table.insert(in, out);
  };
  ins(1);
  ins(2);
  // Touch entry 0 (value 1): its reference bit protects it.
  const std::vector<double> probe{1.0};
  table.mark_used(table.find_nearest(probe).index);
  ins(3);  // must evict value 2, not the referenced value 1
  EXPECT_TRUE(table.find_nearest(probe).distance == 0.0);
}

TEST(Iact, MarkUsedIsNoOpForRoundRobin) {
  TableFixture f;
  auto table = f.make(2, 1, 1, Replacement::kRoundRobin);
  const auto ins = [&table](double x) {
    const std::vector<double> in{x};
    const std::vector<double> out{x};
    table.insert(in, out);
  };
  ins(1);
  table.mark_used(0);  // must not perturb round-robin order
  ins(2);
  ins(3);  // evicts slot 0 (value 1) regardless of mark_used
  const std::vector<double> probe{1};
  const auto match = table.find_nearest(probe);
  EXPECT_GT(match.distance, 0.0);
}

TEST(Iact, MultiDimensionalOutputsRoundTrip) {
  TableFixture f;
  auto table = f.make(4, 3, 4);
  const std::vector<double> in{1, 2, 3};
  const std::vector<double> out{10, 20, 30, 40};
  table.insert(in, out);
  const auto match = table.find_nearest(in);
  const auto cached = table.output_at(match.index);
  for (int d = 0; d < 4; ++d) EXPECT_DOUBLE_EQ(cached[d], out[static_cast<std::size_t>(d)]);
}

TEST(Iact, StorageAccounting) {
  EXPECT_EQ(IactTable::storage_doubles(5, 4, 1), 25u);
  // Figure 3's assumption is 36 bytes per entry for 4+ doubles... our
  // footprint adds validity bookkeeping on top of the raw entries.
  EXPECT_GT(IactTable::footprint_bytes(5, 4, 1), 25u * 8u);
  std::vector<double> small(3);
  EXPECT_THROW(IactTable(4, 2, 1, Replacement::kRoundRobin, small), Error);
}

TEST(Iact, DimensionMismatchesThrow) {
  TableFixture f;
  auto table = f.make(2, 2, 1);
  const std::vector<double> bad_probe{1};
  EXPECT_THROW(table.find_nearest(bad_probe), Error);
  const std::vector<double> in{1, 2};
  const std::vector<double> bad_out{1, 2};  // out_dims is 1
  EXPECT_THROW(table.insert(in, bad_out), Error);
}

class IactFillSweep : public ::testing::TestWithParam<int> {};

TEST_P(IactFillSweep, ValidCountSaturatesAtCapacity) {
  const int tsize = GetParam();
  TableFixture f;
  auto table = f.make(tsize, 1, 1);
  for (int i = 0; i < 3 * tsize; ++i) {
    const std::vector<double> in{static_cast<double>(i)};
    const std::vector<double> out{0.0};
    table.insert(in, out);
    EXPECT_LE(table.valid_count(), tsize);
  }
  EXPECT_EQ(table.valid_count(), tsize);
}

INSTANTIATE_TEST_SUITE_P(Table2Sizes, IactFillSweep, ::testing::Values(1, 2, 4, 8));

// Property: after heavy mixed traffic, round-robin and CLOCK hold the
// same number of entries (capacity) and both still produce valid matches.
TEST(Iact, PoliciesAgreeOnCapacityUnderChurn) {
  for (auto policy : {Replacement::kRoundRobin, Replacement::kClock}) {
    TableFixture f;
    auto table = f.make(8, 2, 1, policy);
    for (int i = 0; i < 100; ++i) {
      const std::vector<double> in{static_cast<double>(i % 13), static_cast<double>(i % 7)};
      const std::vector<double> out{static_cast<double>(i)};
      const auto m = table.find_nearest(in);
      if (m.valid() && m.distance < 0.5) {
        table.mark_used(m.index);
      } else {
        table.insert(in, out);
      }
    }
    EXPECT_EQ(table.valid_count(), 8);
    const std::vector<double> probe{1, 1};
    EXPECT_TRUE(table.find_nearest(probe).valid());
  }
}

// --- storage accounting (mirrors the TAF invariants; both sizes gate
// feasibility against the device's shared memory) ---

TEST(Iact, StorageAccountingIsSelfConsistent) {
  for (const int tsize : {1, 2, 4, 8}) {
    for (const int in_dims : {1, 2, 3}) {
      for (const int out_dims : {1, 2}) {
        const std::size_t doubles = IactTable::storage_doubles(tsize, in_dims, out_dims);
        EXPECT_EQ(doubles,
                  static_cast<std::size_t>(tsize) * (static_cast<std::size_t>(in_dims) + out_dims));
        const std::size_t bytes = IactTable::footprint_bytes(tsize, in_dims, out_dims);
        EXPECT_EQ(bytes, doubles * sizeof(double) + static_cast<std::size_t>(tsize) * 2 +
                             sizeof(std::int32_t));
        EXPECT_GE(bytes, doubles * sizeof(double));
      }
    }
  }
}

TEST(Iact, FootprintAgreesWithTafAccounting) {
  // Both AC-state types count storage the same way: footprint_bytes is the
  // double storage at 8 bytes each plus a small bookkeeping overhead, so
  // the shared-memory planner can treat them uniformly.
  for (const int n : {1, 2, 4, 8}) {
    const std::size_t taf_overhead =
        hpac::approx::TafState::footprint_bytes(n, 1) -
        hpac::approx::TafState::storage_doubles(n, 1) * sizeof(double);
    const std::size_t iact_overhead =
        IactTable::footprint_bytes(n, 1, 1) - IactTable::storage_doubles(n, 1, 1) * sizeof(double);
    EXPECT_GT(taf_overhead, 0u);
    EXPECT_GT(iact_overhead, 0u);
    EXPECT_LE(taf_overhead, 64u);   // bookkeeping, not a second copy of the state
    EXPECT_LE(iact_overhead, 64u);
  }
}

TEST(Iact, RejectsUndersizedStorageSpan) {
  std::vector<double> storage(IactTable::storage_doubles(4, 2, 1) - 1, 0.0);
  EXPECT_THROW(IactTable(4, 2, 1, Replacement::kRoundRobin, storage), Error);
  storage.assign(IactTable::storage_doubles(4, 2, 1), 0.0);
  EXPECT_NO_THROW(IactTable(4, 2, 1, Replacement::kRoundRobin, storage));
}

// --- property/fuzz: find_nearest vs. a naive reference scan -----------------
//
// PR 3 rewrote the probe scan (squared-distance prefix sums, sqrt only on
// improvements) and ROADMAP plans a SIMD rewrite; this suite is the
// contract both must satisfy: bit-identical winning index *and*
// tie-breaking (first strictly-nearer entry wins) against the textbook
// per-entry-sqrt scan, across randomized shapes, seeds and deliberately
// tie-rich value distributions.

namespace {

/// The historical scan, verbatim: sqrt of every entry's distance, strict
/// less-than against the best so far, ascending slot order.
IactTable::Match naive_find_nearest(const IactTable& table, std::span<const double> probe) {
  IactTable::Match best;
  for (int i = 0; i < table.valid_count(); ++i) {
    const double distance = euclidean_distance(probe, table.input_at(i));
    if (distance < best.distance) {
      best.distance = distance;
      best.index = i;
    }
  }
  return best;
}

}  // namespace

TEST(IactProperty, FindNearestMatchesNaiveReferenceScan) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Xoshiro256 rng(seed);
    for (const int in_dims : {1, 2, 3, 5, 10}) {
      for (const int tsize : {1, 2, 4, 8, 16}) {
        TableFixture fixture;
        IactTable table = fixture.make(tsize, in_dims, 1);
        std::vector<double> in(static_cast<std::size_t>(in_dims));
        std::vector<double> out{0.0};
        // Quantized values make exact distance ties likely, exercising the
        // first-wins rule; fills beyond capacity exercise eviction too.
        const auto quantized = [&rng] {
          return 0.25 * static_cast<double>(rng.uniform_index(9));
        };
        const int fills = tsize + static_cast<int>(rng.uniform_index(4));
        for (int f = 0; f < fills; ++f) {
          for (auto& v : in) v = quantized();
          out[0] = static_cast<double>(f);
          table.insert(in, out);
        }
        for (int probe = 0; probe < 64; ++probe) {
          for (auto& v : in) v = quantized();
          const IactTable::Match fast = table.find_nearest(in);
          const IactTable::Match naive = naive_find_nearest(table, in);
          ASSERT_EQ(fast.index, naive.index)
              << "seed " << seed << " dims " << in_dims << " tsize " << tsize;
          ASSERT_EQ(fast.distance, naive.distance);  // bitwise, not approximate
        }
      }
    }
  }
}

TEST(IactProperty, FindNearestTieBreaksToFirstEntryWithDuplicates) {
  // Explicit duplicate-entry construction: several slots hold the exact
  // probe value, so every candidate distance is identical (0.0) and only
  // the first-strictly-nearer rule decides. The winner must be the lowest
  // slot index, matching the naive ascending scan.
  TableFixture fixture;
  IactTable table = fixture.make(8, 3, 1);
  const std::vector<double> dup{1.0, 2.0, 3.0};
  const std::vector<double> other{5.0, 5.0, 5.0};
  std::vector<double> out{0.0};
  table.insert(other, out);
  for (int f = 0; f < 4; ++f) table.insert(dup, out);
  const IactTable::Match match = table.find_nearest(dup);
  EXPECT_EQ(match.index, 1);  // slot 0 is `other`; first duplicate wins
  EXPECT_EQ(match.distance, 0.0);
  EXPECT_EQ(naive_find_nearest(table, dup).index, 1);
}

TEST(IactProperty, FindNearestMatchesNaiveAfterResetAndRefill) {
  // The scan's no-validity-check fast path relies on valid entries always
  // occupying the slot prefix; reset + refill is the sequence that would
  // break it if that invariant ever regressed.
  Xoshiro256 rng(99);
  TableFixture fixture;
  IactTable table = fixture.make(4, 2, 1);
  std::vector<double> in(2);
  std::vector<double> out{0.0};
  for (int round = 0; round < 3; ++round) {
    table.reset();
    const int fills = 1 + static_cast<int>(rng.uniform_index(6));
    for (int f = 0; f < fills; ++f) {
      in[0] = rng.uniform(-2.0, 2.0);
      in[1] = rng.uniform(-2.0, 2.0);
      table.insert(in, out);
    }
    for (int probe = 0; probe < 32; ++probe) {
      in[0] = rng.uniform(-2.0, 2.0);
      in[1] = rng.uniform(-2.0, 2.0);
      const IactTable::Match fast = table.find_nearest(in);
      const IactTable::Match naive = naive_find_nearest(table, in);
      ASSERT_EQ(fast.index, naive.index);
      ASSERT_EQ(fast.distance, naive.distance);
    }
  }
}

// --- O(1) victim selection regression ---------------------------------------
//
// `victim_index` once rescanned the valid flags from slot 0 on every
// insert (O(n²) across a fill). The fix returns `valid_count_` directly
// off the valid-prefix invariant. These assertions pin the observable
// contract the rescan provided, so the CSV bytes that depend on slot
// order cannot move: ascending fill order, then the replacement policy's
// order once full.
TEST(Iact, FillOrderUnchangedByConstantTimeVictimSelection) {
  TableFixture f;
  auto table = f.make(4, 1, 1);
  for (int i = 0; i < 4; ++i) {
    const std::vector<double> in{static_cast<double>(10 + i)};
    const std::vector<double> out{static_cast<double>(i)};
    table.insert(in, out);
    // Slot i received insert i: empty slots fill in ascending order.
    EXPECT_EQ(table.valid_count(), i + 1);
    EXPECT_DOUBLE_EQ(table.input_at(i)[0], 10.0 + i);
  }
  // Once full, round-robin eviction starts at slot 0 — exactly where the
  // historical rescan left the cursor.
  table.insert(std::vector<double>{99.0}, std::vector<double>{9.0});
  EXPECT_DOUBLE_EQ(table.input_at(0)[0], 99.0);
  EXPECT_DOUBLE_EQ(table.input_at(1)[0], 11.0);

  // And after a reset the prefix invariant (and fill order) start over.
  table.reset();
  EXPECT_EQ(table.valid_count(), 0);
  table.insert(std::vector<double>{5.0}, std::vector<double>{0.0});
  EXPECT_DOUBLE_EQ(table.input_at(0)[0], 5.0);
  EXPECT_EQ(table.valid_count(), 1);
}

// --- SIMD dispatch-level bit-identity ---------------------------------------

namespace {

/// Restores the process-wide dispatch level even on assertion failure.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : previous_(hpac::simd::active_level()) {}
  ~SimdLevelGuard() { hpac::simd::set_level(previous_); }

 private:
  hpac::simd::Level previous_;
};

std::vector<hpac::simd::Level> reachable_levels() {
  std::vector<hpac::simd::Level> levels{hpac::simd::Level::kOff};
  if (hpac::simd::max_runtime_level() == hpac::simd::Level::kAvx2) {
    levels.push_back(hpac::simd::Level::kAvx2);
  }
  return levels;
}

/// Whether every probe's answer — from `find_nearest`, from
/// `find_nearest_batch` one probe at a time, and from `find_nearest_batch`
/// in groups of four (the last group holding the remainder) — equals the
/// naive scan's index and distance bit for bit.
::testing::AssertionResult all_probe_paths_match_naive(
    const IactTable& table, const std::vector<std::vector<double>>& probes) {
  std::vector<const double*> pointers;
  for (const auto& probe : probes) pointers.push_back(probe.data());
  std::vector<IactTable::Match> single(probes.size());
  std::vector<IactTable::Match> grouped(probes.size());
  for (std::size_t p = 0; p < probes.size(); ++p) {
    table.find_nearest_batch(std::span(pointers).subspan(p, 1), std::span(single).subspan(p, 1));
  }
  for (std::size_t p = 0; p < probes.size(); p += 4) {
    const std::size_t count = std::min<std::size_t>(4, probes.size() - p);
    table.find_nearest_batch(std::span(pointers).subspan(p, count),
                             std::span(grouped).subspan(p, count));
  }
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const IactTable::Match naive = naive_find_nearest(table, probes[p]);
    const IactTable::Match answers[] = {table.find_nearest(probes[p]), single[p], grouped[p]};
    const char* paths[] = {"find_nearest", "batch of one", "batch of four"};
    for (int a = 0; a < 3; ++a) {
      // Bitwise, not approximate.
      if (answers[a].index != naive.index || answers[a].distance != naive.distance) {
        return ::testing::AssertionFailure()
               << paths[a] << " probe " << p << ": index " << answers[a].index << " distance "
               << answers[a].distance << ", naive index " << naive.index << " distance "
               << naive.distance;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// The central property of the probe scans: at EVERY reachable dispatch
// level, find_nearest and find_nearest_batch (groups of one and of four)
// return the bit-identical index and distance of the naive reference,
// across in_dims 1..9 (specialized kernels 1..8 plus the generic
// runtime-loop fallback), table sizes up to 19 rows, and tie-rich
// quantized values (first-strictly-nearer-in-sqrt-domain tie-break).
// Tables are constructed after set_level because the kernel is cached at
// construction. tests/CMakeLists.txt gives this test and the next two the
// `simd` label.
TEST(IactProperty, FindNearestMatchesNaiveAtEveryDispatchLevel) {
  SimdLevelGuard guard;
  for (const hpac::simd::Level level : reachable_levels()) {
    ASSERT_EQ(hpac::simd::set_level(level), level);
    for (int in_dims = 1; in_dims <= 9; ++in_dims) {
      for (const int tsize : {1, 2, 3, 5, 8, 13, 19}) {
        Xoshiro256 rng(static_cast<std::uint64_t>(in_dims) * 100 + tsize);
        TableFixture fixture;
        IactTable table = fixture.make(tsize, in_dims, 1);
        std::vector<double> in(static_cast<std::size_t>(in_dims));
        std::vector<double> out{0.0};
        const auto quantized = [&rng] {
          return 0.25 * static_cast<double>(rng.uniform_index(9));
        };
        const int fills = tsize + static_cast<int>(rng.uniform_index(4));
        for (int f = 0; f < fills; ++f) {
          for (auto& v : in) v = quantized();
          out[0] = static_cast<double>(f);
          table.insert(in, out);
        }
        std::vector<std::vector<double>> probes(48, in);
        for (auto& probe : probes) {
          for (auto& v : probe) v = quantized();
        }
        ASSERT_TRUE(all_probe_paths_match_naive(table, probes))
            << "level " << hpac::simd::level_name(level) << " dims " << in_dims << " tsize "
            << tsize;
      }
    }
  }
}

// Same property over a storage span at an odd offset into a larger
// buffer: every row of the span is 8-byte- but not 16/32-byte-aligned, so
// the kernel's unaligned-load assumption is exercised rather than
// assumed. Every third insert repeats the previous row, so exact ties
// test the first-wins rule here too.
TEST(IactProperty, FindNearestMatchesNaiveWithUnalignedStorageOffset) {
  SimdLevelGuard guard;
  for (const hpac::simd::Level level : reachable_levels()) {
    ASSERT_EQ(hpac::simd::set_level(level), level);
    for (const int in_dims : {1, 3, 4, 7}) {
      Xoshiro256 rng(static_cast<std::uint64_t>(in_dims));
      std::vector<double> buffer(IactTable::storage_doubles(9, in_dims, 1) + 3, 0.0);
      // +1 double keeps the span 8-byte aligned but breaks any wider
      // alignment the vector's allocation happened to provide.
      std::span<double> storage(buffer.data() + 1, buffer.size() - 1);
      IactTable table(9, in_dims, 1, Replacement::kRoundRobin, storage);
      std::vector<double> in(static_cast<std::size_t>(in_dims));
      std::vector<double> out{0.0};
      for (int f = 0; f < 11; ++f) {
        if (f % 3 != 2) {
          for (auto& v : in) v = rng.uniform(-3.0, 3.0);
        }
        table.insert(in, out);
      }
      std::vector<std::vector<double>> probes(48, in);
      for (auto& probe : probes) {
        for (auto& v : probe) v = rng.uniform(-3.0, 3.0);
      }
      ASSERT_TRUE(all_probe_paths_match_naive(table, probes))
          << "level " << hpac::simd::level_name(level) << " dims " << in_dims;
    }
  }
}

// Early-abandon stress: probes far from every entry except the last two
// slots maximize abandonment in the scalar scan (the vector kernel sums
// every row in full); the winner and its distance must still be
// bit-identical. The last two entries are equal, so the first of them
// must win the exact tie.
TEST(IactProperty, FindNearestMatchesNaiveUnderHeavyEarlyAbandon) {
  SimdLevelGuard guard;
  for (const hpac::simd::Level level : reachable_levels()) {
    ASSERT_EQ(hpac::simd::set_level(level), level);
    TableFixture fixture;
    IactTable table = fixture.make(17, 4, 1);
    std::vector<double> out{0.0};
    for (int f = 0; f < 17; ++f) {
      // Entries march away from the origin; slots 15 and 16 are closest
      // to the probes below.
      std::vector<double> in(4, static_cast<double>(100 - std::min(f, 15)));
      table.insert(in, out);
    }
    const std::vector<std::vector<double>> probes = {
        std::vector<double>(4, 84.0), std::vector<double>(4, 83.5),
        std::vector<double>(4, 85.0), std::vector<double>(4, 84.75)};
    ASSERT_TRUE(all_probe_paths_match_naive(table, probes))
        << "level " << hpac::simd::level_name(level);
    for (const auto& probe : probes) EXPECT_EQ(table.find_nearest(probe).index, 15);
  }
}

// --- batched probes ---------------------------------------------------------
//
// The executor probes a table once per group of up to four lanes through
// `find_nearest_batch`. Every lane's answer must be bit-identical to the
// naive scan of its own probe at every reachable dispatch level: empty,
// partly filled, full and churned tables of 1-9 rows, 1-16 input
// dimensions (the specialized kernels and the generic one), duplicate rows
// (exact ties), probes equal to an entry (distance 0), and both
// replacement policies. Groups of 5-6 probes cover the split into a
// four-probe scan plus a remainder. tests/CMakeLists.txt gives this suite
// the `simd` label, so the HPAC_SIMD dispatch matrix re-runs it.
TEST(IactBatchProbe, MatchesNaivePerProbeAtEveryDispatchLevel) {
  SimdLevelGuard guard;
  for (const hpac::simd::Level level : reachable_levels()) {
    ASSERT_EQ(hpac::simd::set_level(level), level);
    for (const Replacement policy : {Replacement::kRoundRobin, Replacement::kClock}) {
      for (int in_dims = 1; in_dims <= 16; ++in_dims) {
        for (int tsize = 1; tsize <= 9; ++tsize) {
          for (const int fills : {0, tsize / 2, tsize, tsize + 3}) {
            Xoshiro256 rng(static_cast<std::uint64_t>(in_dims) * 1000 + tsize * 10 + fills);
            TableFixture fixture;
            IactTable table = fixture.make(tsize, in_dims, 1, policy);
            const auto quantized = [&rng] {
              return 0.25 * static_cast<double>(rng.uniform_index(5));
            };
            std::vector<double> in(static_cast<std::size_t>(in_dims));
            std::vector<double> out{0.0};
            for (int f = 0; f < fills; ++f) {
              // Every third insert repeats the previous row: exact ties.
              if (f % 3 != 2) {
                for (auto& v : in) v = quantized();
              }
              out[0] = static_cast<double>(f);
              table.insert(in, out);
              if (f % 2 == 1) table.mark_used(f % table.valid_count());
            }
            const std::string where = std::string(hpac::simd::level_name(level)) +
                                      (policy == Replacement::kClock ? " clock" : " rr") +
                                      " dims " + std::to_string(in_dims) + " tsize " +
                                      std::to_string(tsize) + " fills " + std::to_string(fills);
            for (std::size_t group = 1; group <= 6; ++group) {
              for (int rep = 0; rep < 6; ++rep) {
                std::vector<double> packed(group * static_cast<std::size_t>(in_dims));
                for (auto& v : packed) v = quantized();
                // One probe equal to an entry (distance 0) when there is one.
                if (table.valid_count() > 0 && rep % 2 == 0) {
                  const auto entry = table.input_at(rep % table.valid_count());
                  std::copy(entry.begin(), entry.end(),
                            packed.begin() + static_cast<std::ptrdiff_t>((rep % group) * in_dims));
                }
                std::vector<const double*> probes(group);
                for (std::size_t p = 0; p < group; ++p) {
                  probes[p] = packed.data() + p * static_cast<std::size_t>(in_dims);
                }
                std::vector<IactTable::Match> found(group);
                table.find_nearest_batch(probes, found);
                for (std::size_t p = 0; p < group; ++p) {
                  const IactTable::Match naive = naive_find_nearest(
                      table, std::span<const double>(probes[p], static_cast<std::size_t>(in_dims)));
                  ASSERT_EQ(found[p].index, naive.index) << where << " group " << group << " probe " << p;
                  ASSERT_EQ(found[p].distance, naive.distance)  // bitwise, not approximate
                      << where << " group " << group << " probe " << p;
                }
              }
            }
          }
        }
      }
    }
  }
}
