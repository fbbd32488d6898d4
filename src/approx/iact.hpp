#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "approx/iact_scan.hpp"

namespace hpac::approx {

/// Cache replacement policy for iACT tables. The paper uses round-robin
/// and notes (footnote 3) that CLOCK made no difference; both are
/// implemented so `hpac_repro`'s `fn3.clock_no_effect` claim can score it.
enum class Replacement { kRoundRobin, kClock };

/// An iACT (approximate input memoization) table (paper §2.3 and §3.1.4).
///
/// Each entry stores an input vector and the output vector the accurate
/// path produced for it. Lookup returns the entry with the smallest
/// Euclidean distance to the probe; the caller compares the distance to
/// the user threshold to decide whether to reuse the cached output.
///
/// On the GPU a table is *shared* by `warp_size / tables_per_warp` lanes.
/// Access is split into a reading phase (all lanes search concurrently)
/// and a writing phase where a single writer per table inserts — the lane
/// whose input was farthest from every cached value (the most
/// cache-improving candidate). `RegionExecutor` orchestrates the phases;
/// this class provides the storage and the per-operation semantics. The
/// executor reads a table only through `find_nearest_batch`, one call per
/// group of lanes, served at AVX2 by one four-probe vector kernel
/// (iact_scan_avx2.cpp); `find_nearest` is the scalar reference scan.
///
/// Storage models block shared memory; `footprint_bytes` is what
/// `RegionExecutor::ac_state_bytes_per_block` charges against the device's
/// per-block budget before a launch runs.
class IactTable {
 public:
  IactTable(int table_size, int in_dims, int out_dims, Replacement policy,
            std::span<double> storage);

  /// Doubles of shared memory a table occupies.
  static std::size_t storage_doubles(int table_size, int in_dims, int out_dims);
  /// Bytes including validity/age bookkeeping.
  static std::size_t footprint_bytes(int table_size, int in_dims, int out_dims);

  struct Match {
    int index = -1;
    double distance = std::numeric_limits<double>::infinity();
    bool valid() const { return index >= 0; }
  };

  /// Empty the table (all entries invalidated, cursor and CLOCK bits
  /// cleared) without releasing its storage. The executor reuses one set
  /// of tables across all teams of a launch — `reset()` between teams
  /// replaces the per-team reallocation.
  void reset();

  /// Reading phase: nearest entry by Euclidean distance (no state change).
  /// The scalar scan, defined inline below: the reference the vector
  /// kernel behind `find_nearest_batch` matches bit for bit, and its path
  /// at `HPAC_SIMD=off`.
  Match find_nearest(std::span<const double> in) const;

  /// Reading phase for the lanes sharing this table, the executor's only
  /// probe entry point: `out[i]` is bit for bit `find_nearest` of the
  /// `in_dims()` doubles at `probes[i]`. When the vector kernel is active,
  /// probes are scanned in groups of up to four (a group of one included);
  /// otherwise each probe takes `find_nearest`.
  void find_nearest_batch(std::span<const double* const> probes, std::span<Match> out) const;

  /// Record a cache hit for CLOCK's reference bit. No-op for round-robin.
  void mark_used(int index);

  /// Writing phase: insert (in, out), evicting per the policy when full.
  void insert(std::span<const double> in, std::span<const double> out);

  std::span<const double> input_at(int index) const;
  std::span<const double> output_at(int index) const;

  int capacity() const { return table_size_; }
  int valid_count() const { return valid_count_; }
  int in_dims() const { return in_dims_; }
  int out_dims() const { return out_dims_; }

 private:
  int victim_index();

  int table_size_;
  int in_dims_;
  int out_dims_;
  Replacement policy_;
  std::span<double> storage_;  ///< table_size rows of (in_dims + out_dims)
  /// Vector scan kernel chosen at construction from `simd::active_level()`
  /// and `in_dims`; nullptr → one scalar `find_nearest` per probe.
  detail::BatchScanFn batch_scan_fn_ = nullptr;
  std::vector<bool> referenced_;  ///< CLOCK reference bits
  int cursor_ = 0;                ///< round-robin insert / CLOCK hand
  int valid_count_ = 0;
};

/// Euclidean (L2) distance between two equally sized vectors; the match
/// metric of iACT's activation function.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

namespace detail {
/// Out-of-line throw keeps the inlined probe scan free of exception
/// machinery.
[[noreturn]] void throw_probe_mismatch();
}  // namespace detail

inline IactTable::Match IactTable::find_nearest(std::span<const double> in) const {
  if (in.size() != static_cast<std::size_t>(in_dims_)) {
    detail::throw_probe_mismatch();
  }
  // Compare squared distances and take a square root only on
  // improvements. Partial squared sums only grow, so a row whose partial
  // sum already exceeds the best can be abandoned
  // without changing which entry wins; and since sqrt is monotone, a row
  // with sq >= best_sq could never have passed the original strict
  // `sqrt(sq) < best.distance` test either. The final strict comparison
  // happens in the sqrt domain so tie-breaking is identical to the
  // historical per-entry-sqrt scan even when two distinct squared
  // distances round to the same square root (first such entry wins).
  // Valid entries always occupy the slot prefix [0, valid_count_):
  // `victim_index` fills empty slots in ascending order and entries are
  // never individually invalidated, so the scan needs no per-row
  // validity check.
  const std::size_t row_doubles = static_cast<std::size_t>(in_dims_) + out_dims_;
  const double* probe = in.data();
  double best_sq = std::numeric_limits<double>::infinity();
  Match best;
  for (int i = 0; i < valid_count_; ++i) {
    const double* entry = storage_.data() + static_cast<std::size_t>(i) * row_doubles;
    double sq = 0.0;
    for (int d = 0; d < in_dims_; ++d) {
      const double diff = probe[d] - entry[d];
      sq += diff * diff;
      if (sq > best_sq) break;
    }
    if (sq < best_sq) {
      best_sq = sq;
      const double distance = std::sqrt(sq);
      if (distance < best.distance) {
        best.distance = distance;
        best.index = i;
      }
    }
  }
  return best;
}

}  // namespace hpac::approx
