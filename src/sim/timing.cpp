#include "sim/timing.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hpac::sim {

KernelTracker::KernelTracker(const DeviceConfig& dev, const LaunchConfig& launch,
                             std::size_t shared_bytes_per_block)
    : dev_(dev),
      launch_(launch),
      shared_bytes_per_block_(shared_bytes_per_block),
      warps_per_team_(launch.warps_per_team(dev)) {
  launch.validate(dev);
  HPAC_REQUIRE(shared_bytes_per_block <= dev.shared_mem_per_block,
               "block shared memory exceeds device limit");
  ledgers_.resize(launch.num_teams * warps_per_team_);
}

WarpLedger& KernelTracker::warp(std::uint64_t team, std::uint32_t warp_in_team) {
  return ledgers_[team * warps_per_team_ + warp_in_team];
}

const WarpLedger& KernelTracker::warp(std::uint64_t team, std::uint32_t warp_in_team) const {
  return ledgers_[team * warps_per_team_ + warp_in_team];
}

int KernelTracker::resident_blocks_per_sm() const {
  int by_blocks = dev_.max_blocks_per_sm;
  int by_warps = std::max(1u, dev_.max_warps_per_sm / std::max(1u, warps_per_team_));
  int by_shared = dev_.max_blocks_per_sm;
  if (shared_bytes_per_block_ > 0) {
    by_shared = std::max<int>(
        1, static_cast<int>(dev_.shared_mem_per_sm / shared_bytes_per_block_));
  }
  return std::max(1, std::min({by_blocks, by_warps, by_shared}));
}

KernelTiming KernelTracker::finalize() const {
  KernelTiming timing;
  const int resident_blocks = resident_blocks_per_sm();
  timing.resident_blocks_per_sm = resident_blocks;

  const std::uint64_t num_teams = launch_.num_teams;
  const int num_sms = dev_.num_sms;

  double max_sm_cycles = 0;
  for (int sm = 0; sm < num_sms; ++sm) {
    // Blocks are distributed round-robin, the usual hardware rasterization
    // approximation for uniform-cost blocks: SM `sm` runs blocks
    // sm, sm + num_sms, sm + 2*num_sms, ... — membership is arithmetic,
    // so no per-SM block list needs materializing.
    const auto sm_u = static_cast<std::uint64_t>(sm);
    if (sm_u >= num_teams) continue;
    const std::uint64_t sm_blocks =
        (num_teams - sm_u + static_cast<std::uint64_t>(num_sms) - 1) /
        static_cast<std::uint64_t>(num_sms);

    double sm_cycles = 0;
    for (std::uint64_t start = 0; start < sm_blocks;
         start += static_cast<std::uint64_t>(resident_blocks)) {
      const std::uint64_t end =
          std::min(sm_blocks, start + static_cast<std::uint64_t>(resident_blocks));
      double wave_compute = 0;
      double wave_mem = 0;
      std::uint64_t wave_rounds_max = 0;
      std::uint32_t wave_warps = 0;
      for (std::uint64_t i = start; i < end; ++i) {
        const std::uint64_t block = sm_u + i * static_cast<std::uint64_t>(num_sms);
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          const WarpLedger& ledger = warp(block, w);
          wave_compute += ledger.compute_cycles();
          wave_mem += static_cast<double>(ledger.transactions()) * dev_.cycles_per_transaction;
          wave_rounds_max = std::max(wave_rounds_max, ledger.memory_rounds());
          ++wave_warps;
        }
      }
      const int issue = std::min<int>(dev_.issue_width, std::max<std::uint32_t>(1, wave_warps));
      const double compute_time = wave_compute / static_cast<double>(issue);
      // Exposed latency: grid-stride iterations are independent, so each
      // warp keeps `mem_parallelism` loads in flight, and resident warps
      // overlap their stalls; what remains on the critical path per round
      // is latency / (warps x MLP).
      const double overlap =
          std::max(1.0, static_cast<double>(wave_warps) * dev_.mem_parallelism);
      const double exposed =
          static_cast<double>(wave_rounds_max) * dev_.mem_latency_cycles / overlap;
      sm_cycles += std::max(compute_time, wave_mem) + exposed;
    }
    max_sm_cycles = std::max(max_sm_cycles, sm_cycles);
  }

  for (const WarpLedger& ledger : ledgers_) {
    timing.total_transactions += ledger.transactions();
    timing.divergent_regions += ledger.divergent_regions();
    timing.compute_cycles_total += ledger.compute_cycles();
  }

  const std::uint64_t first_wave_blocks =
      std::min<std::uint64_t>(num_teams, static_cast<std::uint64_t>(resident_blocks));
  timing.occupancy = static_cast<double>(first_wave_blocks * warps_per_team_) /
                     static_cast<double>(dev_.max_warps_per_sm);
  timing.occupancy = std::min(1.0, timing.occupancy);

  timing.critical_path_cycles = max_sm_cycles;
  timing.seconds =
      dev_.cycles_to_seconds(max_sm_cycles) + dev_.kernel_launch_overhead_us * 1e-6;
  return timing;
}

}  // namespace hpac::sim
