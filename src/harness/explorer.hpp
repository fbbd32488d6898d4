#pragma once

#include <cstdint>
#include <vector>

#include "harness/benchmark.hpp"
#include "harness/record.hpp"
#include "pragma/spec.hpp"
#include "sim/device.hpp"

namespace hpac::harness {

/// One configuration to measure: the (spec, items-per-thread) half of a
/// campaign tuple — benchmark and device are the Explorer's identity.
struct ConfigRequest {
  pragma::ApproxSpec spec;
  std::uint64_t items_per_thread = 0;
};

/// The portion of a baseline run the evaluation path actually consumes:
/// qoi/qoi_labels (for error_percent), the solver iteration count, and
/// the scoped seconds the speedup ratio divides by. Everything else in the
/// baseline's RunOutput is incidental, so this summary is sufficient to
/// reproduce evaluation results bit-for-bit — which lets a caller evaluate
/// against a baseline computed elsewhere (another Explorer, another
/// process).
struct BaselineSummary {
  std::vector<double> qoi;
  std::vector<int> qoi_labels;
  double iterations = 0;
  double seconds = 0;
};

/// Drives one benchmark through approximation configurations on one
/// simulated device: the hpac-offload *execution harness* (paper §2.3).
/// It runs the accurate program once as the baseline, then evaluates each
/// candidate configuration, computing speedup and quality loss, and
/// collects everything in a ResultDb the caller can persist or aggregate.
class Explorer {
 public:
  Explorer(Benchmark& benchmark, sim::DeviceConfig device);

  /// Run (or reuse) the accurate baseline at the benchmark's default
  /// launch geometry.
  const RunOutput& baseline();

  /// Run (or reuse) the baseline and return the evaluation-relevant slice.
  BaselineSummary baseline_summary();

  /// Adopt a baseline computed elsewhere instead of running one (see
  /// BaselineSummary). Evaluations after seeding produce records identical
  /// to ones computed after a local baseline() on the same
  /// benchmark/device (all runs deterministic).
  /// Must be called before the baseline is computed or used.
  void seed_baseline(const BaselineSummary& summary);

  /// Evaluate a single configuration and append it to the database;
  /// infeasible configurations (AC state exceeding shared memory,
  /// tables-per-warp mismatch, iACT without uniform inputs) yield a
  /// record with feasible = false instead of propagating the error,
  /// matching a harness that logs and moves on.
  RunRecord run_config(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread);

  /// Evaluate the cross product specs x items-per-thread, appending to the
  /// database in deterministic (spec-index, items-per-thread-index) order.
  /// When the benchmark is forkable (Benchmark::fork) and more than one
  /// worker is available, configurations are evaluated concurrently on the
  /// shared scheduler — each participant slot drives its own fork (created
  /// lazily on the slot's first index, so slots that never join cost no
  /// clone), the baseline is computed eagerly before the fan-out, and the
  /// resulting ResultDb (and its CSV) is byte-identical to a serial sweep.
  /// `num_threads == 0` means "use the hardware concurrency"; pass 1 to
  /// force the serial path. Returns the number of feasible configurations.
  std::size_t sweep(const std::vector<pragma::ApproxSpec>& specs,
                    const std::vector<std::uint64_t>& items_per_thread,
                    std::size_t num_threads = 0);

  /// Evaluate an arbitrary batch of configurations and return the records
  /// in request order *without* touching the Explorer's database — the
  /// building block `sweep` (cross product) and `TuningService` (exactly
  /// the tuples missing from a store) share. Computes the baseline eagerly,
  /// then fans out over per-slot benchmark forks like `sweep`; results are
  /// deterministic and independent of worker count.
  std::vector<RunRecord> measure_configs(const std::vector<ConfigRequest>& configs,
                                         std::size_t num_threads = 0);

  ResultDb& db() { return db_; }
  const ResultDb& db() const { return db_; }
  const sim::DeviceConfig& device() const { return device_; }

 private:
  /// Seconds of `output` under `bench`'s timing scope.
  static double scoped_seconds(const Benchmark& bench, const RunOutput& output);

  /// Build the record for one configuration, driving `bench` (the main
  /// benchmark or a per-worker fork). Requires the baseline to have been
  /// computed; does not touch the database, so concurrent calls on
  /// distinct forks are safe.
  RunRecord evaluate(Benchmark& bench, const pragma::ApproxSpec& spec,
                     std::uint64_t items_per_thread) const;

  Benchmark& benchmark_;
  sim::DeviceConfig device_;
  ResultDb db_;
  bool have_baseline_ = false;
  RunOutput baseline_output_;
  double baseline_seconds_ = 0;
};

}  // namespace hpac::harness
