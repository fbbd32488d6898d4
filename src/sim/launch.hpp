#pragma once

#include <algorithm>
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

  /// Call `fn(item)` for items [0, n) in the order the serial engine
  /// commits them: team, then grid-stride step, then thread within the
  /// team (warps ascending, lanes ascending within a warp). An app that
  /// folds per-item contributions after a sharded launch walks this order
  /// to reproduce the serial engine's floating-point order.
  template <typename Fn>
  void for_each_in_walk_order(std::uint64_t n, Fn&& fn) const {
    const std::uint64_t stride = total_threads();
    for (std::uint64_t team = 0; team < num_teams; ++team) {
      for (std::uint64_t first = team * threads_per_team; first < n; first += stride) {
        const std::uint64_t end = std::min<std::uint64_t>(first + threads_per_team, n);
        for (std::uint64_t item = first; item < end; ++item) fn(item);
      }
    }
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
