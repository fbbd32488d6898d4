#pragma once

// Deliberately mislabeled benchmark fixtures for the commit-conflict
// auditor (hpac::approx::audit): every variant *claims*
// `independent_items` while violating it in a different way, so the tests
// can check that each detection surface — the declared write/write and
// read/write overlap checks, and the differential re-run — catches the
// class of bug it is responsible for.
//
// The shared-cell variant commits through relaxed atomic stores: the
// overlap is still a real commit conflict (last-writer-wins, order
// dependent), but running it sharded stays free of C++ data races so
// the detection tests can run under ThreadSanitizer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/support.hpp"
#include "harness/benchmark.hpp"
#include "offload/device.hpp"
#include "pragma/spec.hpp"
#include "sim/launch.hpp"

namespace hpac::testing {

enum class Flaw {
  kNone,                  ///< honest: item i writes only cells[i]
  kSharedCell,            ///< items 2k and 2k+1 both write cells[k]
  kDeclaredReadNeighbor,  ///< reads cells[i-1], declared via read_extents
  kHiddenReadNeighbor,    ///< reads cells[i-1], undeclared (differential-only)
  kUndeclaredExtents,     ///< honest writes but no commit_extents at all
};

class MislabeledBenchmark : public harness::Benchmark {
 public:
  explicit MislabeledBenchmark(Flaw flaw, std::uint64_t items = 16384)
      : flaw_(flaw), items_(items) {}

  std::string name() const override { return "mislabeled_fixture"; }
  std::uint64_t default_items_per_thread() const override { return 8; }

  harness::RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                         const sim::DeviceConfig& device) override {
    const std::uint64_t n = items_;
    offload::Device dev(device);
    approx::RegionExecutor executor(device);
    cells_.assign(n, 0.0);
    std::vector<double>& cells = cells_;
    const Flaw flaw = flaw_;
    const bool chain =
        flaw == Flaw::kDeclaredReadNeighbor || flaw == Flaw::kHiddenReadNeighbor;

    approx::RegionBinding binding;
    binding.name = "fixture.mislabeled";
    binding.out_dims = 1;
    binding.in_bytes = sizeof(double);
    binding.out_bytes = sizeof(double);
    const auto cell_of = [flaw](std::uint64_t i) {
      return flaw == Flaw::kSharedCell ? i / 2 : i;
    };
    const auto value_one = [&cells, chain](std::uint64_t i, double* out) {
      if (chain) {
        // Chain dependence on the *previous item's committed cell*: the
        // value observed depends on whether item i-1's team already ran,
        // which is exactly what a reordered schedule perturbs.
        out[0] = (i == 0 ? 0.0 : cells[i - 1]) * 0.5 + 1.0;
      } else {
        out[0] = 1.0 + static_cast<double>(i % 7);
      }
    };
    apps::bind_accurate(binding, value_one);
    apps::bind_constant_cost(binding, 16.0);
    const auto commit_one = [&cells, flaw, cell_of](std::uint64_t i, const double* out) {
      if (flaw == Flaw::kSharedCell) {
        std::atomic_ref<double>(cells[cell_of(i)]).store(out[0], std::memory_order_relaxed);
      } else {
        cells[cell_of(i)] = out[0];
      }
    };
    apps::bind_commit(binding, commit_one);
    binding.independent_items = true;  // the (false, for most flaws) claim under test
    // The extents themselves are truthful — the author knows *where* they
    // write; the subtle judgment the auditor validates is whether those
    // writes are independent across items.
    if (flaw == Flaw::kSharedCell) {
      // Item i's cell i/2 is not a row pattern, so each item declares its
      // own single-item row.
      for (std::uint64_t i = 0; i < n; ++i) {
        binding.commit_extents.push_back(
            {.ptr = cells.data() + cell_of(i), .len = sizeof(double), .first = i, .last = i + 1});
      }
    } else if (flaw != Flaw::kUndeclaredExtents) {
      binding.commit_extents = {approx::audit::dense(cells.data())};
    }
    if (flaw == Flaw::kDeclaredReadNeighbor) {
      // Items 1.. read the previous item's cell.
      binding.read_extents = {
          {.ptr = cells.data(), .stride = sizeof(double), .len = sizeof(double), .first = 1}};
    }

    const sim::LaunchConfig launch =
        sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
    harness::RunOutput output;
    apps::launch_kernel(dev, executor, spec, binding, n, launch, &output.stats);
    output.timeline = dev.timeline();
    output.qoi = cells_;
    return output;
  }

  std::unique_ptr<harness::Benchmark> fork() const override {
    return std::make_unique<MislabeledBenchmark>(*this);
  }

  const std::vector<double>& cells() const { return cells_; }

 private:
  Flaw flaw_;
  std::uint64_t items_;
  std::vector<double> cells_;
};

}  // namespace hpac::testing
