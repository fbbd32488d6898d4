#pragma once

#include <cstdint>
#include <string>

namespace hpac::sim {

/// Parameters of a simulated GPU.
///
/// The simulator is *functional + first-order analytic timing*: kernels run
/// lane-by-lane on the host with exact arithmetic, while time is derived
/// from these parameters via the models in `memory_model.hpp` and
/// `timing.hpp` (SIMT divergence serialization, coalesced transaction
/// counting, occupancy-dependent latency hiding). Absolute times are not
/// meaningful; ratios between configurations of the same device are, which
/// is what the paper's evaluation reports (speedup over the accurate run).
struct DeviceConfig {
  std::string name;

  // --- parallelism ---
  int num_sms = 80;            ///< streaming multiprocessors (CUs on AMD)
  int warp_size = 32;          ///< lanes per warp (wavefront = 64 on AMD)
  int max_warps_per_sm = 64;   ///< resident warp contexts per SM
  int max_blocks_per_sm = 32;  ///< resident thread blocks per SM
  int issue_width = 4;         ///< warp schedulers per SM (warps issuing per cycle)

  // --- memories ---
  std::uint64_t global_mem_bytes = 16ull << 30;   ///< device global memory
  std::uint32_t shared_mem_per_block = 96u << 10; ///< bytes of shared memory a block may use
  std::uint32_t shared_mem_per_sm = 96u << 10;    ///< total shared memory per SM
  std::uint32_t transaction_bytes = 32;           ///< coalescing segment size
  double cycles_per_transaction = 2.0;            ///< per-SM DRAM throughput model
  double mem_latency_cycles = 450.0;              ///< exposed DRAM round-trip latency
  double mem_parallelism = 4.0;  ///< outstanding loads per warp (grid-stride MLP)
  double shared_mem_access_cycles = 1.0;          ///< LDS/shared access cost

  // --- clocks and host link ---
  double clock_ghz = 1.38;            ///< SM clock used to convert cycles to seconds
  double host_link_gbps = 16.0;       ///< HtoD/DtoH bandwidth (GB/s)
  double host_link_latency_us = 10.0; ///< fixed per-transfer latency
  double kernel_launch_overhead_us = 0.3;  ///< driver launch latency per kernel

  /// Total thread contexts the device can have resident at once.
  std::uint64_t max_resident_threads() const {
    return static_cast<std::uint64_t>(num_sms) * max_warps_per_sm * warp_size;
  }

  /// Seconds for a host<->device transfer of `bytes`.
  double transfer_seconds(std::uint64_t bytes) const;

  /// Convert SM cycles to seconds at the device clock.
  double cycles_to_seconds(double cycles) const { return cycles / (clock_ghz * 1e9); }
};

/// NVIDIA Tesla V100-like preset (the paper's first platform: 80 SMs,
/// warp size 32, 16 GB HBM2).
DeviceConfig v100();

/// AMD Instinct MI250X-like preset (the paper's second platform: 220 CUs
/// per the paper's description, wavefront size 64, 64 KB LDS).
DeviceConfig mi250x();

/// Look up a preset by name ("v100", "mi250x", "nvidia", "amd"; case
/// insensitive). Throws hpac::ConfigError for unknown names.
DeviceConfig device_by_name(const std::string& name);

}  // namespace hpac::sim
