#pragma once

#include <cstdint>

#include "sim/device.hpp"

namespace hpac::sim {

/// Kernel launch geometry, mirroring the OpenMP offload knobs the paper's
/// evaluation sweeps: `num_teams` (thread blocks) and the per-team thread
/// count. With a fixed problem size N, fewer teams means more grid-stride
/// iterations ("items per thread"), which is the axis of Figure 8c.
struct LaunchConfig {
  std::uint64_t num_teams = 1;        ///< thread blocks in the grid
  std::uint32_t threads_per_team = 128;

  std::uint64_t total_threads() const {
    return num_teams * threads_per_team;
  }

  std::uint32_t warps_per_team(const DeviceConfig& dev) const {
    return (threads_per_team + dev.warp_size - 1) / static_cast<std::uint32_t>(dev.warp_size);
  }

  /// Grid-stride steps needed to cover `n` items.
  std::uint64_t steps_for(std::uint64_t n) const {
    const std::uint64_t t = total_threads();
    return (n + t - 1) / t;
  }

  /// Throws hpac::ConfigError when the geometry is not launchable.
  void validate(const DeviceConfig& dev) const;
};

/// Build the launch that gives each thread approximately `items_per_thread`
/// grid-stride iterations over `n` items (the paper's "Items per Thread"
/// sweep axis). The block size is kept at `threads_per_team`.
LaunchConfig launch_for_items_per_thread(std::uint64_t n, std::uint64_t items_per_thread,
                                         std::uint32_t threads_per_team);

}  // namespace hpac::sim
