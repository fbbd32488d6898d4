// Unit and property tests for the GPU simulator substrate: device presets,
// launch geometry, shared-memory accounting, coalescing, warp primitives
// and the analytic timing model.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/error.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"
#include "sim/memory_model.hpp"
#include "sim/timing.hpp"
#include "sim/warp.hpp"

using namespace hpac;
using namespace hpac::sim;

TEST(Device, PresetsMatchPlatformStory) {
  const DeviceConfig nv = v100();
  const DeviceConfig amd = mi250x();
  EXPECT_EQ(nv.warp_size, 32);
  EXPECT_EQ(amd.warp_size, 64);
  // The AMD part has more SMs (the paper's 80:220 ratio, scaled).
  EXPECT_GT(amd.num_sms, 2 * nv.num_sms);
  EXPECT_EQ(nv.global_mem_bytes, 16ull << 30);
}

TEST(Device, LookupByName) {
  EXPECT_EQ(device_by_name("nvidia").name, "v100");
  EXPECT_EQ(device_by_name("AMD").name, "mi250x");
  EXPECT_THROW(device_by_name("tpu"), ConfigError);
}

TEST(Device, AliasAndCaseInsensitiveRoundTrips) {
  // Vendor aliases resolve to the canonical presets regardless of case...
  EXPECT_EQ(device_by_name("NVIDIA").name, "v100");
  EXPECT_EQ(device_by_name("NvIdIa").name, "v100");
  EXPECT_EQ(device_by_name("amd").name, "mi250x");
  EXPECT_EQ(device_by_name("Amd").name, "mi250x");
  EXPECT_EQ(device_by_name("V100").name, "v100");
  EXPECT_EQ(device_by_name("MI250X").name, "mi250x");
  // ...and the canonical name a lookup returns looks itself up again.
  EXPECT_EQ(device_by_name(device_by_name("NVIDIA").name).name, "v100");
  EXPECT_EQ(device_by_name(device_by_name("amd").name).name, "mi250x");
}

TEST(Device, A100PresetExtendsThePortabilityComparison) {
  const DeviceConfig amp = a100();
  EXPECT_EQ(amp.name, "a100");
  EXPECT_EQ(amp.warp_size, 32);
  // SM counts keep the real parts' 80:108:220 ordering under the common
  // 1/8 scaling.
  EXPECT_GT(amp.num_sms, v100().num_sms);
  EXPECT_LT(amp.num_sms, mi250x().num_sms);
  // The A100's large shared memory is the point of the preset: AC states
  // too big for the MI250X's 64 KB LDS still fit here.
  EXPECT_GT(amp.shared_mem_per_sm, v100().shared_mem_per_sm);
  EXPECT_GT(amp.shared_mem_per_block, mi250x().shared_mem_per_block);
  EXPECT_EQ(amp.global_mem_bytes, 40ull << 30);
}

TEST(Device, A100LookupAliases) {
  EXPECT_EQ(device_by_name("a100").name, "a100");
  EXPECT_EQ(device_by_name("A100").name, "a100");
  EXPECT_EQ(device_by_name("ampere").name, "a100");
  EXPECT_EQ(device_by_name("Ampere").name, "a100");
  EXPECT_EQ(device_by_name(device_by_name("ampere").name).name, "a100");
}

TEST(Device, UnknownPresetThrowsConfigError) {
  EXPECT_THROW(device_by_name("h100"), ConfigError);
  EXPECT_THROW(device_by_name(""), ConfigError);
  EXPECT_THROW(device_by_name("v100 "), ConfigError);  // no trimming promised
  try {
    device_by_name("gaudi");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("gaudi"), std::string::npos);
  }
}

TEST(Device, TransferTimeIsLatencyPlusBandwidth) {
  DeviceConfig d = v100();
  const double just_latency = d.transfer_seconds(0);
  EXPECT_NEAR(just_latency, d.host_link_latency_us * 1e-6, 1e-12);
  const double one_gb = d.transfer_seconds(1ull << 30);
  EXPECT_GT(one_gb, just_latency + 0.01);
}

TEST(Launch, StepsForCoversIterationSpace) {
  LaunchConfig cfg;
  cfg.num_teams = 4;
  cfg.threads_per_team = 128;  // 512 threads
  EXPECT_EQ(cfg.steps_for(512), 1u);
  EXPECT_EQ(cfg.steps_for(513), 2u);
  EXPECT_EQ(cfg.steps_for(1), 1u);
}

TEST(Launch, ItemsPerThreadBuilder) {
  const auto cfg = launch_for_items_per_thread(1 << 16, 8, 128);
  EXPECT_EQ(cfg.total_threads(), (1u << 16) / 8);
  EXPECT_EQ(cfg.threads_per_team, 128u);
}

TEST(Launch, ExtremeItemsPerThreadShrinksTeam) {
  // Figure 8c sweeps to 16384 items per thread: a single thread must be
  // a valid launch.
  const auto cfg = launch_for_items_per_thread(16384, 16384, 128);
  EXPECT_EQ(cfg.total_threads(), 1u);
  EXPECT_EQ(cfg.steps_for(16384), 16384u);
}

TEST(Launch, ValidationRejectsBadGeometry) {
  DeviceConfig dev = v100();
  LaunchConfig cfg;
  cfg.num_teams = 0;
  EXPECT_THROW(cfg.validate(dev), ConfigError);
  cfg.num_teams = 1;
  cfg.threads_per_team = 4096;  // beyond the 1024-thread block limit
  EXPECT_THROW(cfg.validate(dev), ConfigError);
}

TEST(Warp, FullMaskAndLaneOps) {
  EXPECT_EQ(full_mask(32), 0xFFFFFFFFull);
  EXPECT_EQ(full_mask(64), ~0ull);
  EXPECT_TRUE(lane_active(0b100, 2));
  EXPECT_FALSE(lane_active(0b100, 1));
  EXPECT_EQ(popcount(0b1011ull), 3);
  EXPECT_EQ(first_lane(0b1000), 3);
  EXPECT_EQ(first_lane(0), -1);
}

TEST(Warp, BallotRespectsActiveMask) {
  std::array<bool, 4> wishes{true, true, false, true};
  const LaneMask mask =
      ballot(std::span<const bool>(wishes.data(), wishes.size()), 0b0011);
  EXPECT_EQ(mask, 0b0011ull);  // lane 3 wished but is inactive
}

TEST(Warp, LedgerSerializesDivergentPaths) {
  WarpLedger ledger;
  const std::array<double, 2> both{100.0, 30.0};
  ledger.charge_paths(both);
  EXPECT_DOUBLE_EQ(ledger.compute_cycles(), 130.0);
  EXPECT_EQ(ledger.divergent_regions(), 1u);
  const std::array<double, 2> single{50.0, 0.0};
  ledger.charge_paths(single);
  EXPECT_EQ(ledger.divergent_regions(), 1u);  // one path is free: no divergence
}

TEST(Coalescing, UnitStrideDoublesOn32ByteSegments) {
  CoalescingModel model(v100());  // 32-byte segments
  // 32 lanes x 8-byte elements, fully active: 256 bytes = 8 transactions.
  EXPECT_EQ(model.unit_stride_transactions(0, 8, full_mask(32), 32), 8u);
}

TEST(Coalescing, SparseMaskStillTouchesMostSegments) {
  CoalescingModel model(v100());
  // Every other lane active: segments still cover the whole range —
  // the memory-fragmentation cost of per-thread (small) perforation.
  LaneMask every_other = 0x55555555ull;
  EXPECT_EQ(model.unit_stride_transactions(0, 8, every_other, 32), 8u);
}

TEST(Coalescing, EmptyMaskIsFree) {
  CoalescingModel model(v100());
  EXPECT_EQ(model.unit_stride_transactions(0, 8, 0, 32), 0u);
}

namespace {
KernelTracker make_tracker(const DeviceConfig& dev, std::uint64_t teams,
                           std::uint32_t tpt = 128, std::size_t shmem = 0) {
  LaunchConfig cfg;
  cfg.num_teams = teams;
  cfg.threads_per_team = tpt;
  return KernelTracker(dev, cfg, shmem);
}
}  // namespace

TEST(Timing, MoreComputeTakesLonger) {
  const DeviceConfig dev = v100();
  auto t1 = make_tracker(dev, 16);
  auto t2 = make_tracker(dev, 16);
  for (std::uint64_t b = 0; b < 16; ++b) {
    for (std::uint32_t w = 0; w < 4; ++w) {
      t1.warp(b, w).charge_compute(1000);
      t2.warp(b, w).charge_compute(3000);
    }
  }
  EXPECT_LT(t1.finalize().seconds, t2.finalize().seconds);
}

TEST(Timing, LatencyHidingImprovesWithOccupancy) {
  // Same total work and memory rounds: many resident warps hide latency
  // better than few (the Figure 8c mechanism).
  const DeviceConfig dev = v100();
  auto sparse = make_tracker(dev, 1);    // one team on one SM
  auto dense = make_tracker(dev, 160);   // 16 teams per SM
  for (std::uint32_t w = 0; w < 4; ++w) {
    sparse.warp(0, w).charge_compute(100);
    sparse.warp(0, w).charge_memory(8, 16);
  }
  for (std::uint64_t b = 0; b < 160; ++b) {
    for (std::uint32_t w = 0; w < 4; ++w) {
      dense.warp(b, w).charge_compute(100);
      dense.warp(b, w).charge_memory(8, 16);
    }
  }
  const auto t_sparse = sparse.finalize();
  const auto t_dense = dense.finalize();
  // The dense launch does 160x the work but takes far less than 160x/10sms.
  EXPECT_LT(t_dense.critical_path_cycles, t_sparse.critical_path_cycles * 16.0 * 0.9);
  EXPECT_GT(t_dense.occupancy, t_sparse.occupancy);
}

TEST(Timing, SharedMemoryLimitsResidency) {
  const DeviceConfig dev = v100();
  auto light = make_tracker(dev, 32, 128, 0);
  auto heavy = make_tracker(dev, 32, 128, dev.shared_mem_per_block);
  EXPECT_GT(light.resident_blocks_per_sm(), heavy.resident_blocks_per_sm());
  EXPECT_EQ(heavy.resident_blocks_per_sm(), 1);
}

TEST(Timing, DivergenceCountsSurface) {
  const DeviceConfig dev = v100();
  auto tracker = make_tracker(dev, 1);
  const std::array<double, 2> paths{10.0, 20.0};
  tracker.warp(0, 0).charge_paths(paths);
  EXPECT_EQ(tracker.finalize().divergent_regions, 1u);
}

TEST(Timing, LaunchOverheadFloorsKernelTime) {
  const DeviceConfig dev = v100();
  auto tracker = make_tracker(dev, 1);
  const auto timing = tracker.finalize();
  EXPECT_GE(timing.seconds, dev.kernel_launch_overhead_us * 1e-6);
}

TEST(Timing, BlocksDistributeAcrossSms) {
  // 10 blocks over 10 SMs should be ~10x faster than 10 blocks' work on
  // one SM (modeled by launching one team with the same total cycles).
  const DeviceConfig dev = v100();
  auto spread = make_tracker(dev, 10);
  for (std::uint64_t b = 0; b < 10; ++b) spread.warp(b, 0).charge_compute(10000);
  auto lumped = make_tracker(dev, 1);
  lumped.warp(0, 0).charge_compute(100000);
  EXPECT_LT(spread.finalize().critical_path_cycles,
            lumped.finalize().critical_path_cycles * 0.2);
}

TEST(Coalescing, NonPowerOfTwoSegmentsAndScatteredMasks) {
  // Exercise the division fallback (non-power-of-two sectors) and the
  // sparse-mask path against a brute-force segment count.
  DeviceConfig dev = v100();
  dev.transaction_bytes = 24;
  CoalescingModel model(dev);
  const auto brute = [&](std::uint64_t first, std::uint32_t eb, LaneMask mask, int ws) {
    std::vector<std::uint64_t> segments;
    for (int lane = 0; lane < ws; ++lane) {
      if (!lane_active(mask, lane)) continue;
      const std::uint64_t addr = (first + static_cast<std::uint64_t>(lane)) * eb;
      for (std::uint64_t s = addr / 24; s <= (addr + eb - 1) / 24; ++s) segments.push_back(s);
    }
    std::sort(segments.begin(), segments.end());
    segments.erase(std::unique(segments.begin(), segments.end()), segments.end());
    return static_cast<std::uint32_t>(segments.size());
  };
  for (LaneMask mask : {LaneMask{0x55555555}, LaneMask{0xF0F00F0F}, full_mask(32),
                        LaneMask{0x80000001}, LaneMask{0x00010000}}) {
    for (std::uint64_t first : {0ull, 3ull, 1001ull}) {
      for (std::uint32_t eb : {4u, 8u, 40u}) {
        EXPECT_EQ(model.unit_stride_transactions(first, eb, mask, 32),
                  brute(first, eb, mask, 32))
            << "mask=" << mask << " first=" << first << " eb=" << eb;
      }
    }
  }
}

TEST(Warp, ForEachLaneVisitsSetBitsAscending) {
  std::vector<int> lanes;
  for_each_lane(0b1010011ull, [&](int lane) { lanes.push_back(lane); });
  EXPECT_EQ(lanes, (std::vector<int>{0, 1, 4, 6}));
  for_each_lane(0ull, [&](int) { FAIL() << "empty mask must not visit"; });
}
