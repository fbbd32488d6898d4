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

TEST(Device, UnknownPresetThrowsConfigError) {
  EXPECT_THROW(device_by_name("h100"), ConfigError);
  EXPECT_THROW(device_by_name(""), ConfigError);
  EXPECT_THROW(device_by_name("v100 "), ConfigError);  // no trimming promised
  EXPECT_THROW(device_by_name("a100"), ConfigError);   // retired preset and alias
  EXPECT_THROW(device_by_name("ampere"), ConfigError);
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
  EXPECT_EQ(with_lane(0b001, 2), 0b101ull);
  EXPECT_EQ(popcount(0b1011ull), 3);
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

// --- worked examples of the timing model -----------------------------------
//
// Exact-equality pins of KernelTracker::finalize on launches small enough
// to work out by hand. Per SM, each wave of co-resident blocks costs
//   max(compute / min(issue_width, warps), transactions x cycles_per_transaction)
//     + max_rounds x mem_latency / (warps x mem_parallelism)
// cycles, and the kernel takes the busiest SM's cycles at the clock plus
// the launch overhead. A change to one of these equations must change its
// worked example with it.

namespace {

/// One SM with four schedulers, room for 8 warps or 2 blocks and 96 KiB
/// (98,304 bytes) of shared memory, a 1 GHz clock (one cycle is one
/// nanosecond) and a 0.5 us launch overhead. Every intermediate below is
/// exact in binary floating point.
DeviceConfig worked_example_device() {
  DeviceConfig dev;
  dev.name = "worked";
  dev.num_sms = 1;
  dev.warp_size = 32;
  dev.max_warps_per_sm = 8;
  dev.max_blocks_per_sm = 2;
  dev.shared_mem_per_block = 96u << 10;
  dev.shared_mem_per_sm = 96u << 10;
  dev.issue_width = 4;
  dev.cycles_per_transaction = 2.0;
  dev.mem_latency_cycles = 400.0;
  dev.mem_parallelism = 4.0;
  dev.clock_ghz = 1.0;
  dev.kernel_launch_overhead_us = 0.5;
  return dev;
}

}  // namespace

TEST(TimingWorkedExample, OneSmOneBlockOneWarp) {
  const DeviceConfig dev = worked_example_device();
  // Launch-overhead floor: a launch that charges nothing takes exactly the
  // driver's 0.5 us.
  EXPECT_EQ(make_tracker(dev, 1, 32).finalize().seconds, 0.5e-6);

  // One block of one warp: 1,000 compute cycles, 10 transactions in 3
  // dependent rounds.
  auto tracker = make_tracker(dev, 1, 32);
  tracker.warp(0, 0).charge_compute(1000);
  tracker.warp(0, 0).charge_memory(10, 3);
  const KernelTiming timing = tracker.finalize();
  //   compute  = 1000 / min(4 schedulers, 1 warp) = 1000
  //   memory   = 10 x 2                           = 20
  //   exposed  = 3 x 400 / (1 warp x 4 MLP)       = 300
  //   critical = max(1000, 20) + 300              = 1300 cycles
  EXPECT_EQ(timing.critical_path_cycles, 1300.0);
  // 1300 cycles at 1 GHz + 0.5 us.
  EXPECT_EQ(timing.seconds, 1300.0 / 1e9 + 0.5e-6);
  // Residency min(2 by blocks, 8 / 1 by warps) = 2; the one block's one
  // warp fills 1 of 8 warp slots.
  EXPECT_EQ(timing.resident_blocks_per_sm, 2);
  EXPECT_EQ(timing.occupancy, 0.125);
  EXPECT_EQ(timing.total_transactions, 10u);
  EXPECT_EQ(timing.compute_cycles_total, 1000.0);
  EXPECT_EQ(timing.divergent_regions, 0u);
}

TEST(TimingWorkedExample, TwoWavesLimitedByBlocksPerSm) {
  const DeviceConfig dev = worked_example_device();
  // Four blocks of two warps. Warps alone would let 8 / 2 = 4 blocks be
  // resident; max_blocks_per_sm caps it at 2, so the SM runs blocks
  // {0, 1}, then {2, 3}: two waves of four warps.
  auto tracker = make_tracker(dev, 4, 64);
  EXPECT_EQ(tracker.resident_blocks_per_sm(), 2);
  for (std::uint32_t w = 0; w < 2; ++w) {
    for (std::uint64_t b : {0u, 1u}) {  // compute-bound wave
      tracker.warp(b, w).charge_compute(800);
      tracker.warp(b, w).charge_memory(5, 2);
    }
    for (std::uint64_t b : {2u, 3u}) {  // bandwidth-bound wave
      tracker.warp(b, w).charge_compute(100);
      tracker.warp(b, w).charge_memory(300, 4);
    }
  }
  const KernelTiming timing = tracker.finalize();
  // Wave 1: compute = 4 x 800 / min(4, 4 warps) = 800
  //         memory  = 4 x 5 x 2                 = 40
  //         exposed = 2 x 400 / (4 warps x 4)   = 50
  //         wave    = max(800, 40) + 50         = 850
  // Wave 2: compute = 4 x 100 / 4               = 100
  //         memory  = 4 x 300 x 2               = 2400
  //         exposed = 4 x 400 / 16              = 100
  //         wave    = max(100, 2400) + 100      = 2500
  // Waves run back to back: 850 + 2500 = 3350 cycles.
  EXPECT_EQ(timing.critical_path_cycles, 3350.0);
  EXPECT_EQ(timing.seconds, 3350.0 / 1e9 + 0.5e-6);
  // The first wave's 2 blocks x 2 warps fill 4 of 8 warp slots.
  EXPECT_EQ(timing.resident_blocks_per_sm, 2);
  EXPECT_EQ(timing.occupancy, 0.5);
  EXPECT_EQ(timing.total_transactions, 4u * 5 + 4u * 300);
  EXPECT_EQ(timing.compute_cycles_total, 4 * 800.0 + 4 * 100.0);
}

TEST(TimingWorkedExample, ThreeWavesLimitedByWarpsPerSm) {
  const DeviceConfig dev = worked_example_device();
  // Three blocks of five warps. max_blocks_per_sm would allow 2 resident
  // blocks; the warp slots allow floor(8 / 5) = 1, so the SM runs one
  // block per wave and leaves 3 of its 8 warp slots idle.
  auto tracker = make_tracker(dev, 3, 160);
  EXPECT_EQ(tracker.resident_blocks_per_sm(), 1);
  for (std::uint64_t b = 0; b < 3; ++b) {
    for (std::uint32_t w = 0; w < 5; ++w) {
      tracker.warp(b, w).charge_compute(400);
      tracker.warp(b, w).charge_memory(10, 2);
    }
  }
  const KernelTiming timing = tracker.finalize();
  // Each wave: compute = 5 x 400 / min(4, 5 warps) = 500
  //            memory  = 5 x 10 x 2               = 100
  //            exposed = 2 x 400 / (5 warps x 4)  = 40
  //            wave    = max(500, 100) + 40       = 540
  // Three waves back to back: 3 x 540 = 1620 cycles. (Two resident
  // blocks would give waves of 1020 and 540, 1560 cycles.)
  EXPECT_EQ(timing.critical_path_cycles, 1620.0);
  EXPECT_EQ(timing.seconds, 1620.0 / 1e9 + 0.5e-6);
  // The first wave's 1 block x 5 warps fill 5 of 8 warp slots.
  EXPECT_EQ(timing.resident_blocks_per_sm, 1);
  EXPECT_EQ(timing.occupancy, 0.625);
  EXPECT_EQ(timing.total_transactions, 15u * 10);
  EXPECT_EQ(timing.compute_cycles_total, 15 * 400.0);
}

TEST(TimingWorkedExample, ThreeWavesLimitedBySharedBytesPerBlock) {
  const DeviceConfig dev = worked_example_device();
  // Three blocks of two warps. Blocks allow 2 resident, warps 8 / 2 = 4.
  // The SM's 98,304 shared bytes hold floor(98304 / 49153) = 1 block of
  // 49,153 bytes: one byte over half. At exactly half, two fit.
  EXPECT_EQ(make_tracker(dev, 3, 64, 49152).resident_blocks_per_sm(), 2);
  auto tracker = make_tracker(dev, 3, 64, 49153);
  EXPECT_EQ(tracker.resident_blocks_per_sm(), 1);
  for (std::uint64_t b = 0; b < 3; ++b) {
    for (std::uint32_t w = 0; w < 2; ++w) {
      tracker.warp(b, w).charge_compute(600);
      tracker.warp(b, w).charge_memory(50, 1);
    }
  }
  const KernelTiming timing = tracker.finalize();
  // Each wave: compute = 2 x 600 / min(4, 2 warps) = 600
  //            memory  = 2 x 50 x 2               = 200
  //            exposed = 1 x 400 / (2 warps x 4)  = 50
  //            wave    = max(600, 200) + 50       = 650
  // Three waves back to back: 3 x 650 = 1950 cycles. (Two resident
  // blocks would give waves of 625 and 650, 1275 cycles.)
  EXPECT_EQ(timing.critical_path_cycles, 1950.0);
  EXPECT_EQ(timing.seconds, 1950.0 / 1e9 + 0.5e-6);
  // The first wave's 1 block x 2 warps fill 2 of 8 warp slots.
  EXPECT_EQ(timing.resident_blocks_per_sm, 1);
  EXPECT_EQ(timing.occupancy, 0.25);
  EXPECT_EQ(timing.total_transactions, 6u * 50);
  EXPECT_EQ(timing.compute_cycles_total, 6 * 600.0);
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
      if (((mask >> lane) & 1ull) == 0) continue;
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
