#include "harness/explorer.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "approx/audit.hpp"
#include "common/error.hpp"
#include "common/scheduler.hpp"
#include "common/strings.hpp"

namespace hpac::harness {

Explorer::Explorer(Benchmark& benchmark, sim::DeviceConfig device)
    : benchmark_(benchmark), device_(std::move(device)) {}

double Explorer::scoped_seconds(const Benchmark& bench, const RunOutput& output) {
  return bench.timing_scope() == TimingScope::kKernelOnly
             ? output.timeline.kernel_seconds
             : output.timeline.end_to_end_seconds();
}

const RunOutput& Explorer::baseline() {
  if (!have_baseline_) {
    pragma::ApproxSpec none;
    baseline_output_ =
        benchmark_.run(none, benchmark_.default_items_per_thread(), device_);
    baseline_seconds_ = scoped_seconds(benchmark_, baseline_output_);
    have_baseline_ = true;
  }
  return baseline_output_;
}

BaselineSummary Explorer::baseline_summary() {
  baseline();
  BaselineSummary summary;
  summary.qoi = baseline_output_.qoi;
  summary.qoi_labels = baseline_output_.qoi_labels;
  summary.iterations = baseline_output_.iterations;
  summary.seconds = baseline_seconds_;
  return summary;
}

void Explorer::seed_baseline(const BaselineSummary& summary) {
  HPAC_REQUIRE(!have_baseline_,
               "seed_baseline must run before the baseline is computed");
  baseline_output_ = RunOutput{};
  baseline_output_.qoi = summary.qoi;
  baseline_output_.qoi_labels = summary.qoi_labels;
  baseline_output_.iterations = summary.iterations;
  baseline_seconds_ = summary.seconds;
  have_baseline_ = true;
}

RunRecord Explorer::evaluate(Benchmark& bench, const pragma::ApproxSpec& spec,
                             std::uint64_t items_per_thread) const {
  RunRecord record;
  record.benchmark = bench.name();
  record.device = device_.name;
  record.items_per_thread = items_per_thread;
  record.set_spec(spec);
  try {
    const RunOutput output = bench.run(spec, items_per_thread, device_);
    const double seconds = scoped_seconds(bench, output);
    record.error_percent = bench.error_percent(baseline_output_, output);
    record.approx_ratio = output.stats.approx_ratio();
    record.kernel_seconds = output.timeline.kernel_seconds;
    record.end_to_end_seconds = output.timeline.end_to_end_seconds();
    record.iterations = output.iterations;
    record.baseline_iterations = baseline_output_.iterations;
    if (!output.stats.conflicts.empty()) {
      // Report-mode audit findings (enforce mode throws ConfigError inside
      // run and lands in the infeasible branch below). The record stays
      // feasible — report mode observes, it does not veto.
      record.note = strings::format("audit: %zu %s finding(s); first: %s",
                                    output.stats.conflicts.size(),
                                    approx::audit::kConflictToken,
                                    output.stats.conflicts.front().to_string().c_str());
    }
    if (seconds > 0 && baseline_seconds_ > 0) {
      record.speedup = baseline_seconds_ / seconds;
    } else {
      // A non-positive scoped time — on either side of the ratio — is a
      // degenerate measurement, not a legitimate infinite/zero speedup;
      // flag it rather than recording speedup = 0 as if the
      // configuration had run. An audit note set above must survive the
      // flagging (Campaign's audit_flagged counter greps the note).
      record.feasible = false;
      record.note = record.note.empty()
                        ? "degenerate run: non-positive measured time"
                        : "degenerate run: non-positive measured time; " + record.note;
    }
  } catch (const ConfigError& e) {
    record.feasible = false;
    record.note = e.what();
  }
  return record;
}

RunRecord Explorer::run_config(const pragma::ApproxSpec& spec,
                               std::uint64_t items_per_thread) {
  baseline();
  RunRecord record = evaluate(benchmark_, spec, items_per_thread);
  db_.add(record);
  return record;
}

std::vector<RunRecord> Explorer::measure_configs(
    const std::vector<ConfigRequest>& configs, std::size_t num_threads) {
  const std::size_t total = configs.size();
  std::vector<RunRecord> records(total);
  if (total == 0) return records;

  // The lazy baseline init is not thread-safe; compute it eagerly so the
  // workers below only ever read baseline state.
  baseline();

  // Clamp to what can actually participate — more forks than the
  // scheduler has threads would be constructed and never used.
  const std::size_t workers = std::min(Scheduler::recommended_threads(num_threads, total),
                                       Scheduler::shared().parallelism());
  // Per-slot forks are created lazily: slot 0 (the calling thread always
  // participates) doubles as the forkability probe, and every other slot
  // forks on first use — a batch whose indices are all claimed before any
  // worker joins pays for exactly one clone. Slots are exclusive to one
  // thread for the whole job, so the lazy init needs no synchronization;
  // concurrent forks on different slots are const reads of the source
  // benchmark.
  std::vector<std::unique_ptr<Benchmark>> forks;
  if (workers > 1) {
    if (auto probe = benchmark_.fork()) {
      forks.resize(workers);
      forks[0] = std::move(probe);
    }
    // else: non-forkable benchmark, fall back to serial
  }

  auto eval_at = [&](Benchmark& bench, std::size_t index) {
    records[index] =
        evaluate(bench, configs[index].spec, configs[index].items_per_thread);
  };

  if (forks.empty()) {
    for (std::size_t index = 0; index < total; ++index) eval_at(benchmark_, index);
  } else {
    // One fork per participant slot; the calling thread claims indices
    // alongside the joining workers, so `workers` is an upper bound on
    // concurrency, not a thread spawn count. Records land at their index,
    // which keeps the result order — and any CSV built from it — identical
    // to a serial evaluation.
    Scheduler::shared().parallel_for(
        total,
        [&](std::size_t slot, std::size_t index) {
          if (!forks[slot]) {
            forks[slot] = benchmark_.fork();
            HPAC_REQUIRE(forks[slot] != nullptr,
                         "Benchmark::fork returned null after a successful probe fork");
          }
          eval_at(*forks[slot], index);
        },
        /*max_participants=*/forks.size());
  }
  return records;
}

std::size_t Explorer::sweep(const std::vector<pragma::ApproxSpec>& specs,
                            const std::vector<std::uint64_t>& items_per_thread,
                            std::size_t num_threads) {
  std::vector<ConfigRequest> configs;
  configs.reserve(specs.size() * items_per_thread.size());
  for (const auto& spec : specs) {
    for (const std::uint64_t ipt : items_per_thread) {
      configs.push_back(ConfigRequest{spec, ipt});
    }
  }
  std::vector<RunRecord> records = measure_configs(configs, num_threads);

  std::size_t feasible = 0;
  for (auto& record : records) {
    if (record.feasible) ++feasible;
    db_.add(std::move(record));
  }
  return feasible;
}

}  // namespace hpac::harness
