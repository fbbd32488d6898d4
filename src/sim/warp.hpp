#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace hpac::sim {

/// A warp's active-lane mask. 64 bits covers both NVIDIA (32 lanes) and
/// AMD (64-lane wavefronts).
using LaneMask = std::uint64_t;

/// Mask with the low `warp_size` bits set.
constexpr LaneMask full_mask(int warp_size) {
  return warp_size >= 64 ? ~0ull : ((1ull << warp_size) - 1);
}

constexpr bool lane_active(LaneMask mask, int lane) { return (mask >> lane) & 1ull; }

constexpr LaneMask with_lane(LaneMask mask, int lane) { return mask | (1ull << lane); }

/// Number of active lanes — the paper's `popcount` of a ballot result.
inline int popcount(LaneMask mask) { return std::popcount(mask); }

/// Invoke `fn(lane)` for every set lane in ascending order. The executor's
/// hot loops and the apps' batched bindings iterate warps this way: cost is
/// O(active lanes) with no per-inactive-lane branch.
template <typename Fn>
inline void for_each_lane(LaneMask mask, Fn&& fn) {
  while (mask != 0) {
    const int lane = std::countr_zero(mask);
    mask &= mask - 1;
    fn(lane);
  }
}

/// The `ballot` warp intrinsic (paper §3.3): collects one predicate bit per
/// lane into a mask. Only lanes in `active` contribute.
LaneMask ballot(std::span<const bool> predicates, LaneMask active);

/// Index of the lowest active lane, or -1 when the mask is empty. Used to
/// pick the leader that performs a warp's single-writer operations.
int first_lane(LaneMask mask);

/// Per-warp cycle ledger for one kernel. The region executor charges
/// compute work path-by-path: under SIMT, a warp whose lanes split between
/// the accurate and the approximate execution paths pays the *sum* of both
/// paths' latencies (divergence serialization), which is the performance
/// hazard hierarchical decisions eliminate (paper §3.1.2).
class WarpLedger {
 public:
  /// Charge a region-body execution: `path_cycles` per taken path.
  /// Serialization: total += sum of the costs of paths with >=1 active lane.
  void charge_paths(std::span<const double> path_cycles);

  /// Charge uniform (non-divergent) compute cycles.
  void charge_compute(double cycles);

  /// Charge global-memory transactions; a "round" is one batch of loads a
  /// warp must wait on (used by the latency exposure model).
  void charge_memory(std::uint32_t transactions, std::uint32_t rounds = 1);

  /// Charge shared-memory accesses (cheap, but not free; iACT table scans
  /// are made of these).
  void charge_shared(std::uint32_t accesses, double cycles_per_access);

  /// Charge a block-wide barrier (`__syncthreads`) — modeled as a fixed
  /// cost here; the block-level wait is handled by the timing model since
  /// all warps in a block advance together in the wave model.
  void charge_barrier(double cycles = 20.0);

  double compute_cycles() const { return compute_cycles_; }
  std::uint64_t transactions() const { return transactions_; }
  std::uint64_t memory_rounds() const { return memory_rounds_; }
  std::uint64_t divergent_regions() const { return divergent_regions_; }

 private:
  double compute_cycles_ = 0;
  std::uint64_t transactions_ = 0;
  std::uint64_t memory_rounds_ = 0;
  std::uint64_t divergent_regions_ = 0;
};

}  // namespace hpac::sim
