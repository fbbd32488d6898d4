#include "sim/memory_model.hpp"

#include <algorithm>
#include <vector>

namespace hpac::sim {

std::uint32_t CoalescingModel::transactions(std::span<const std::uint64_t> lane_addresses,
                                            LaneMask active) const {
  std::vector<std::uint64_t> segments;
  segments.reserve(lane_addresses.size());
  for (std::size_t lane = 0; lane < lane_addresses.size(); ++lane) {
    if (!lane_active(active, static_cast<int>(lane))) continue;
    segments.push_back(lane_addresses[lane] / segment_bytes_);
  }
  if (segments.empty()) return 0;
  std::sort(segments.begin(), segments.end());
  segments.erase(std::unique(segments.begin(), segments.end()), segments.end());
  return static_cast<std::uint32_t>(segments.size());
}

}  // namespace hpac::sim
