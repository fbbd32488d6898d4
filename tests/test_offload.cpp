// Tests for the offload layer: map directionality, timeline accounting and
// the target-region launch helpers.

#include <gtest/gtest.h>

#include "approx/region.hpp"
#include "apps/support.hpp"
#include "offload/device.hpp"
#include "offload/target.hpp"
#include "sim/device.hpp"

using namespace hpac;
using namespace hpac::offload;

TEST(Offload, MapToChargesOnEntry) {
  Device dev(sim::v100());
  {
    MapScope map(dev, 1 << 20, MapDir::kTo);
    EXPECT_GT(dev.timeline().htod_seconds, 0.0);
    EXPECT_EQ(dev.timeline().dtoh_seconds, 0.0);
  }
  EXPECT_EQ(dev.timeline().dtoh_seconds, 0.0);
}

TEST(Offload, MapFromChargesOnExit) {
  Device dev(sim::v100());
  {
    MapScope map(dev, 1 << 20, MapDir::kFrom);
    EXPECT_EQ(dev.timeline().dtoh_seconds, 0.0);
  }
  EXPECT_GT(dev.timeline().dtoh_seconds, 0.0);
  EXPECT_EQ(dev.timeline().htod_seconds, 0.0);
}

TEST(Offload, MapToFromChargesBothDirections) {
  Device dev(sim::v100());
  { MapScope map(dev, 1 << 20, MapDir::kToFrom); }
  EXPECT_GT(dev.timeline().htod_seconds, 0.0);
  EXPECT_GT(dev.timeline().dtoh_seconds, 0.0);
}

TEST(Offload, AllocMovesNothing) {
  Device dev(sim::v100());
  { MapScope map(dev, 1 << 20, MapDir::kAlloc); }
  EXPECT_EQ(dev.timeline().end_to_end_seconds(), 0.0);
}

TEST(Offload, TimelineAccumulatesAndResets) {
  Device dev(sim::v100());
  dev.record_htod(1024);
  dev.record_dtoh(1024);
  dev.record_host(0.5);
  Timeline t = dev.timeline();
  EXPECT_DOUBLE_EQ(t.end_to_end_seconds(),
                   t.htod_seconds + t.dtoh_seconds + t.kernel_seconds + t.host_seconds);
  EXPECT_GT(t.end_to_end_seconds(), 0.5);
  dev.reset();
  EXPECT_EQ(dev.timeline().end_to_end_seconds(), 0.0);
}

TEST(Offload, TimelinePlusEquals) {
  Timeline a{1, 2, 3, 4};
  Timeline b{10, 20, 30, 40};
  a += b;
  EXPECT_DOUBLE_EQ(a.htod_seconds, 11);
  EXPECT_DOUBLE_EQ(a.end_to_end_seconds(), 110);
}

TEST(Offload, TargetParallelForAddsKernelTime) {
  Device dev(sim::v100());
  approx::RegionExecutor executor(dev.config());
  std::vector<double> out(256, 0.0);
  approx::RegionBinding binding;
  binding.out_dims = 1;
  apps::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  apps::bind_constant_cost(binding, 10.0);
  apps::bind_commit(binding, [&out](std::uint64_t i, const double* o) { out[i] = o[0]; });

  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(out.size(), 1, 128);
  const auto report =
      target_parallel_for(dev, executor, "none", binding, out.size(), launch);
  EXPECT_DOUBLE_EQ(dev.timeline().kernel_seconds, report.timing.seconds);
  EXPECT_DOUBLE_EQ(out[200], 200.0);

  // The string overload parses clause text on the fly.
  target_parallel_for(dev, executor, "perfo(large:4)", binding, out.size(), launch);
  EXPECT_GT(dev.timeline().kernel_seconds, report.timing.seconds);
}
