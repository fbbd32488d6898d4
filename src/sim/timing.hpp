#pragma once

#include <cstdint>
#include <vector>

#include "sim/device.hpp"
#include "sim/launch.hpp"
#include "sim/warp.hpp"

namespace hpac::sim {

/// Result of the kernel time model.
struct KernelTiming {
  double seconds = 0;                ///< modeled wall time of the kernel
  double critical_path_cycles = 0;   ///< busiest SM's cycle count
  double occupancy = 0;              ///< resident warps / max resident warps (first wave)
  int resident_blocks_per_sm = 0;    ///< blocks co-resident on one SM
  std::uint64_t total_transactions = 0;
  std::uint64_t divergent_regions = 0;  ///< warp-region executions that split paths
  double compute_cycles_total = 0;      ///< sum over all warps
};

/// Per-kernel cycle tracker and analytic time model.
///
/// The model is deliberately first-order; it captures exactly the effects
/// the paper's analysis turns on:
///
///  * **SIMT divergence** — `WarpLedger::charge_paths` serializes distinct
///    execution paths within a warp.
///  * **Coalescing** — transaction counts come from `CoalescingModel`, so
///    fragmented access (per-thread perforation) costs more than herded
///    access.
///  * **Latency hiding vs. occupancy** (Figure 8c) — each SM executes its
///    blocks in waves of `resident_blocks_per_sm`; per wave the exposed
///    DRAM latency is `rounds * mem_latency / resident_warps`: many
///    resident warps overlap their stalls, few resident warps expose them.
///    Devices with more SMs (AMD) need more blocks to stay hidden, which
///    is why their speedup declines at smaller items-per-thread.
///  * **Shared-memory pressure** — blocks whose shared memory (including
///    AC state) is large reduce `resident_blocks_per_sm` and with it
///    occupancy.
class KernelTracker {
 public:
  KernelTracker(const DeviceConfig& dev, const LaunchConfig& launch,
                std::size_t shared_bytes_per_block = 0);

  /// Ledger of warp `warp_in_team` of team `team`. The team-parallel
  /// executor's shards charge one tracker concurrently: each shard owns a
  /// contiguous team range, so no ledger is written by two threads.
  WarpLedger& warp(std::uint64_t team, std::uint32_t warp_in_team);
  const WarpLedger& warp(std::uint64_t team, std::uint32_t warp_in_team) const;

  const DeviceConfig& device() const { return dev_; }
  const LaunchConfig& launch() const { return launch_; }

  /// Blocks that fit concurrently on one SM given warp and shared-memory
  /// limits (>= 1: a launchable block always runs, possibly alone).
  int resident_blocks_per_sm() const;

  /// Apply the SM/wave model and produce the kernel timing.
  KernelTiming finalize() const;

 private:
  DeviceConfig dev_;
  LaunchConfig launch_;
  std::size_t shared_bytes_per_block_;
  std::uint32_t warps_per_team_;
  std::vector<WarpLedger> ledgers_;
};

}  // namespace hpac::sim
