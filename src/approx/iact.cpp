#include "approx/iact.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace hpac::approx {

namespace detail {
void throw_probe_mismatch() { throw Error("probe dimensionality mismatch"); }

BatchScanFn select_iact_batch_scan(int in_dims) {
  return simd::active_level() == simd::Level::kAvx2 ? iact_batch_scan_fn_avx2(in_dims) : nullptr;
}
}  // namespace detail

double euclidean_distance(std::span<const double> a, std::span<const double> b) {
  HPAC_REQUIRE(a.size() == b.size(), "distance between vectors of different size");
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::sqrt(sq);
}

IactTable::IactTable(int table_size, int in_dims, int out_dims, Replacement policy,
                     std::span<double> storage)
    : table_size_(table_size),
      in_dims_(in_dims),
      out_dims_(out_dims),
      policy_(policy),
      storage_(storage),
      referenced_(static_cast<std::size_t>(table_size), false) {
  HPAC_REQUIRE(table_size >= 1, "iACT table size must be >= 1");
  HPAC_REQUIRE(in_dims >= 1, "iACT requires at least one input dimension");
  HPAC_REQUIRE(out_dims >= 1, "iACT requires at least one output dimension");
  HPAC_REQUIRE(storage.size() >= storage_doubles(table_size, in_dims, out_dims),
               "iACT storage span too small");
  batch_scan_fn_ = detail::select_iact_batch_scan(in_dims_);
}

std::size_t IactTable::storage_doubles(int table_size, int in_dims, int out_dims) {
  return static_cast<std::size_t>(table_size) *
         (static_cast<std::size_t>(in_dims) + static_cast<std::size_t>(out_dims));
}

std::size_t IactTable::footprint_bytes(int table_size, int in_dims, int out_dims) {
  // Entries + one validity byte and one reference byte per row + cursor.
  // The host tracks validity by `valid_count_` alone (valid rows are the
  // slot prefix), but the device keeps the byte, so it stays charged.
  return storage_doubles(table_size, in_dims, out_dims) * sizeof(double) +
         static_cast<std::size_t>(table_size) * 2 + sizeof(std::int32_t);
}

void IactTable::reset() {
  std::fill(referenced_.begin(), referenced_.end(), false);
  cursor_ = 0;
  valid_count_ = 0;
}

void IactTable::find_nearest_batch(std::span<const double* const> probes,
                                   std::span<Match> out) const {
  HPAC_REQUIRE(out.size() >= probes.size(), "find_nearest_batch output span too small");
  if (batch_scan_fn_ == nullptr) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      out[i] = find_nearest(std::span<const double>(probes[i], static_cast<std::size_t>(in_dims_)));
    }
    return;
  }
  detail::BatchScanArgs args;
  args.rows = storage_.data();
  args.row_stride = in_dims_ + out_dims_;
  args.valid_count = valid_count_;
  args.in_dims = in_dims_;
  for (std::size_t i = 0; i < probes.size(); i += static_cast<std::size_t>(args.count)) {
    args.count = static_cast<int>(std::min<std::size_t>(4, probes.size() - i));
    std::copy_n(probes.begin() + static_cast<std::ptrdiff_t>(i), args.count, args.probes);
    detail::ScanResult found[4];
    batch_scan_fn_(args, found);
    for (int lane = 0; lane < args.count; ++lane) {
      out[i + static_cast<std::size_t>(lane)] = Match{found[lane].index, found[lane].distance};
    }
  }
}

void IactTable::mark_used(int index) {
  if (policy_ != Replacement::kClock) return;
  HPAC_REQUIRE(index >= 0 && index < table_size_, "mark_used index out of range");
  referenced_[static_cast<std::size_t>(index)] = true;
}

int IactTable::victim_index() {
  if (valid_count_ < table_size_) {
    // Fill empty slots first under either policy. Valid entries always
    // occupy the slot prefix [0, valid_count_) — the same invariant the
    // scan's no-validity-check fast path rests on — so the first empty
    // slot IS valid_count_; no rescan from 0 per insert (was O(n²) fill).
    return valid_count_;
  }
  if (policy_ == Replacement::kRoundRobin) {
    const int victim = cursor_;
    cursor_ = (cursor_ + 1) % table_size_;
    return victim;
  }
  // CLOCK: advance the hand, clearing reference bits, until an
  // unreferenced entry is found.
  for (;;) {
    const int i = cursor_;
    cursor_ = (cursor_ + 1) % table_size_;
    if (!referenced_[static_cast<std::size_t>(i)]) return i;
    referenced_[static_cast<std::size_t>(i)] = false;
  }
}

void IactTable::insert(std::span<const double> in, std::span<const double> out) {
  HPAC_REQUIRE(in.size() == static_cast<std::size_t>(in_dims_), "insert input size mismatch");
  HPAC_REQUIRE(out.size() == static_cast<std::size_t>(out_dims_), "insert output size mismatch");
  const int slot = victim_index();
  const std::size_t row = static_cast<std::size_t>(slot) *
                          (static_cast<std::size_t>(in_dims_) + out_dims_);
  for (int d = 0; d < in_dims_; ++d) storage_[row + static_cast<std::size_t>(d)] = in[d];
  for (int d = 0; d < out_dims_; ++d) {
    storage_[row + static_cast<std::size_t>(in_dims_) + static_cast<std::size_t>(d)] = out[d];
  }
  // Valid rows are the slot prefix, so the victim is empty exactly when it
  // is slot valid_count_.
  if (slot == valid_count_) ++valid_count_;
  referenced_[static_cast<std::size_t>(slot)] = false;
}

std::span<const double> IactTable::input_at(int index) const {
  HPAC_REQUIRE(index >= 0 && index < table_size_, "input_at index out of range");
  const std::size_t row = static_cast<std::size_t>(index) *
                          (static_cast<std::size_t>(in_dims_) + out_dims_);
  return storage_.subspan(row, static_cast<std::size_t>(in_dims_));
}

std::span<const double> IactTable::output_at(int index) const {
  HPAC_REQUIRE(index >= 0 && index < table_size_, "output_at index out of range");
  const std::size_t row = static_cast<std::size_t>(index) *
                          (static_cast<std::size_t>(in_dims_) + out_dims_);
  return storage_.subspan(row + static_cast<std::size_t>(in_dims_),
                          static_cast<std::size_t>(out_dims_));
}

}  // namespace hpac::approx
