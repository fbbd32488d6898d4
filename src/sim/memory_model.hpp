#pragma once

#include <bit>
#include <cstdint>

#include "sim/device.hpp"
#include "sim/warp.hpp"

namespace hpac::sim {

/// Global-memory coalescing model.
///
/// A warp's lane accesses are combined into memory transactions of
/// `DeviceConfig::transaction_bytes`; the number of transactions is the
/// number of distinct segments touched by active lanes (CUDA's sector
/// model). Perforation and divergence change which lanes are active, which
/// is how "herded" perforation keeps transactions aligned (paper §3.1.5)
/// while per-thread `small` perforation fragments them.
class CoalescingModel {
 public:
  explicit CoalescingModel(const DeviceConfig& dev) : segment_bytes_(dev.transaction_bytes) {
    // Real devices use power-of-two sectors; precompute the shift so the
    // per-warp hot path divides with it instead of a runtime divisor.
    while ((1u << (segment_shift_ + 1)) <= segment_bytes_) ++segment_shift_;
    if ((1u << segment_shift_) != segment_bytes_) segment_shift_ = -1;
  }

  /// Transactions for the common pattern "active lane l accesses
  /// base + (item_of_lane l) * elem_bytes" where items are consecutive for
  /// consecutive lanes (unit-stride) — the layout of a grid-stride loop.
  /// Defined inline below: the region executor calls this once per warp
  /// per load/store, making it one of the hottest functions of the
  /// simulator.
  std::uint32_t unit_stride_transactions(std::uint64_t first_item, std::uint32_t elem_bytes,
                                         LaneMask active, int warp_size) const;

  std::uint32_t segment_bytes() const { return segment_bytes_; }

 private:
  std::uint64_t segment_of(std::uint64_t addr) const {
    return segment_shift_ >= 0 ? addr >> segment_shift_ : addr / segment_bytes_;
  }

  std::uint32_t segment_bytes_;
  int segment_shift_ = 0;
};

inline std::uint32_t CoalescingModel::unit_stride_transactions(std::uint64_t first_item,
                                                               std::uint32_t elem_bytes,
                                                               LaneMask active,
                                                               int warp_size) const {
  if (active == 0 || elem_bytes == 0) return 0;
  // Active masks are contiguous lane ranges in every common case (full
  // steps, ragged tails, herded perforation), and a contiguous
  // unit-stride range touches exactly the segments between its first and
  // last byte — two shifts, no per-lane work.
  const LaneMask masked = active & full_mask(warp_size);
  if (masked == 0) return 0;
  const int lo = std::countr_zero(masked);
  const int hi = 63 - std::countl_zero(masked);
  if (masked == (full_mask(hi - lo + 1) << lo)) {
    const std::uint64_t first_addr =
        (first_item + static_cast<std::uint64_t>(lo)) * elem_bytes;
    const std::uint64_t last_addr =
        (first_item + static_cast<std::uint64_t>(hi)) * elem_bytes + elem_bytes - 1;
    return static_cast<std::uint32_t>(segment_of(last_addr) - segment_of(first_addr) + 1);
  }
  // Sparse masks (per-thread perforation, split accurate/approximate
  // paths): addresses still grow monotonically with the lane index, so
  // distinct segments are countable with a running high-water mark — no
  // materialized segment list, no sort.
  std::uint32_t count = 0;
  std::uint64_t counted_up_to = 0;  // one past the highest segment counted
  for_each_lane(masked, [&](int lane) {
    const std::uint64_t addr = (first_item + static_cast<std::uint64_t>(lane)) * elem_bytes;
    std::uint64_t first_seg = segment_of(addr);
    const std::uint64_t last_seg = segment_of(addr + elem_bytes - 1);
    if (first_seg < counted_up_to) first_seg = counted_up_to;
    if (first_seg <= last_seg) {
      count += static_cast<std::uint32_t>(last_seg - first_seg + 1);
      counted_up_to = last_seg + 1;
    }
  });
  return count;
}

}  // namespace hpac::sim
