#pragma once

#include <cstdint>

#include "approx/region.hpp"
#include "offload/device.hpp"
#include "offload/target.hpp"
#include "pragma/spec.hpp"
#include "sim/launch.hpp"
#include "sim/warp.hpp"

namespace hpac::apps {

// --- region-binding builders ----------------------------------------------
//
// Apps define each region operation once, per item, as
// `fn(item, double* data)`; these lift it to the RegionBinding warp-batched
// form: `fn` runs over the active lanes of a warp in ascending lane order,
// with lane l's packed data at offset l * dims. Dims must be assigned on
// the binding before binding the operations. Regions with a genuinely
// custom shape (e.g. minife's data-dependent cost) set the members
// directly.

template <typename Fn>
void bind_gather(approx::RegionBinding& binding, Fn fn) {
  const auto dims = static_cast<std::size_t>(binding.in_dims);
  binding.gather_batch = [fn, dims](std::uint64_t first_item, sim::LaneMask lanes,
                                    std::span<double> in) {
    sim::for_each_lane(lanes, [&](int lane) {
      fn(first_item + static_cast<std::uint64_t>(lane),
         in.data() + static_cast<std::size_t>(lane) * dims);
    });
  };
}

/// For regions that read their own data and ignore the gathered inputs,
/// as all bundled apps do.
template <typename Fn>
void bind_accurate(approx::RegionBinding& binding, Fn fn) {
  const auto dims = static_cast<std::size_t>(binding.out_dims);
  binding.accurate_batch = [fn, dims](std::uint64_t first_item, sim::LaneMask lanes,
                                      std::span<const double>, std::span<double> out) {
    sim::for_each_lane(lanes, [&](int lane) {
      fn(first_item + static_cast<std::uint64_t>(lane),
         out.data() + static_cast<std::size_t>(lane) * dims);
    });
  };
}

template <typename Fn>
void bind_commit(approx::RegionBinding& binding, Fn fn) {
  const auto dims = static_cast<std::size_t>(binding.out_dims);
  binding.commit_batch = [fn, dims](std::uint64_t first_item, sim::LaneMask lanes,
                                    std::span<const double> out) {
    sim::for_each_lane(lanes, [&](int lane) {
      fn(first_item + static_cast<std::uint64_t>(lane),
         out.data() + static_cast<std::size_t>(lane) * dims);
    });
  };
}

/// For regions whose accurate path costs the same for every item: answers
/// the warp-max query in O(1).
inline void bind_constant_cost(approx::RegionBinding& binding, double cycles) {
  binding.accurate_cost_batch = [cycles](std::uint64_t, sim::LaneMask) { return cycles; };
}

/// Accumulate the counters of one kernel launch into an aggregate (apps
/// launch their approximated kernels many times per run).
inline void accumulate_stats(approx::ExecStats& total, const approx::ExecStats& part) {
  total.add_counters(part);
  if (part.shared_bytes_per_block > total.shared_bytes_per_block) {
    total.shared_bytes_per_block = part.shared_bytes_per_block;
  }
  if (part.host_shards > total.host_shards) total.host_shards = part.host_shards;
  if (part.simd_level > total.simd_level) total.simd_level = part.simd_level;
  total.conflicts.insert(total.conflicts.end(), part.conflicts.begin(), part.conflicts.end());
}

/// Launch one kernel: adds its modeled time to the device timeline and,
/// when `aggregate` is given, folds the approximation counters into it.
inline approx::RegionReport launch_kernel(offload::Device& device,
                                          const approx::RegionExecutor& executor,
                                          const pragma::ApproxSpec& spec,
                                          const approx::RegionBinding& binding,
                                          std::uint64_t n, const sim::LaunchConfig& launch,
                                          approx::ExecStats* aggregate = nullptr) {
  approx::RegionReport report =
      offload::target_parallel_for(device, executor, spec, binding, n, launch);
  if (aggregate != nullptr) accumulate_stats(*aggregate, report.stats);
  return report;
}

/// The accurate-only spec used for un-annotated kernels.
inline const pragma::ApproxSpec& accurate_spec() {
  static const pragma::ApproxSpec spec;
  return spec;
}

}  // namespace hpac::apps
