#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/record.hpp"
#include "harness/result_store.hpp"
#include "pragma/spec.hpp"
#include "sim/device.hpp"

namespace hpac::harness {

/// What a Campaign evaluates: the full cross product of registered
/// benchmarks x device presets x approximation specs x items-per-thread —
/// the multi-application, multi-platform sweep behind the paper's headline
/// comparison (Fig. 6 aggregates seven applications on two GPUs).
struct CampaignPlan {
  /// Registry names (apps::benchmark_names()); must be non-empty, unique
  /// and known.
  std::vector<std::string> benchmarks;
  /// Device preset names for sim::device_by_name; non-empty and unique.
  std::vector<std::string> devices;
  /// Spec grid per device. Device-dependent so warp-size-gated parameters
  /// (Table 2's 64 tables per warp on AMD) can filter per platform. When
  /// null, the curated TAF + iACT + perforation sets are used.
  std::function<std::vector<pragma::ApproxSpec>(const sim::DeviceConfig&)> specs_for;
  /// Launch-geometry axis, shared by every benchmark; non-empty.
  std::vector<std::uint64_t> items_per_thread{8, 64};
  /// Worker threads for the shard fan-out: 0 = hardware concurrency,
  /// 1 = serial.
  std::size_t num_threads = 0;
  /// Checkpoint/result CSV. While running, completed records are appended
  /// (and flushed) here so a killed campaign loses at most the in-flight
  /// tuples; on completion the file is rewritten in canonical order.
  /// Re-running with the same path resumes: already-present tuples are
  /// not re-evaluated. Empty = in-memory only.
  std::string output_path;
  /// Progress observer, invoked once per newly evaluated record. Called
  /// from worker threads under a dedicated callback mutex: invocations are
  /// serialized with each other (no synchronization needed inside), but
  /// *not* with the campaign's record/journal lock — the record's journal
  /// row is flushed before the callback runs, and a blocked callback can
  /// never stall journaling or evaluation by the other workers. (It can
  /// still stall *itself*: whether other workers exist to make the
  /// progress it waits for depends on scheduler load, so do not block on
  /// cross-worker progress unconditionally.) Exceptions it throws abort
  /// the campaign; because the row was already persisted, a resume will
  /// not re-evaluate the triggering record.
  std::function<void(const RunRecord&)> on_record;
};

/// Outcome of Campaign::run.
struct CampaignResult {
  std::size_t planned = 0;    ///< tuples in the cross product
  std::size_t restored = 0;   ///< tuples skipped because the checkpoint had them
  std::size_t evaluated = 0;  ///< tuples actually run this invocation
  std::size_t stale = 0;      ///< checkpoint rows not part of this plan (dropped)
  std::size_t feasible = 0;   ///< feasible records across the whole database
  /// Records the commit-conflict auditor flagged (report-mode findings in
  /// the note, or enforce-mode ConfigErrors). Always 0 when the campaign
  /// ran with ExecTuning::audit_mode == kOff.
  std::size_t audit_flagged = 0;
  ResultDb db;                ///< all records in canonical plan order
};

/// Multi-benchmark x multi-device sweep driver with persistent resume —
/// the layer above Explorer that turns one-shot exploration into a
/// restartable batch job (the way the paper's harness swept 57,288
/// configurations per benchmark over days of GPU time).
///
/// Work is sharded at (benchmark, device) granularity: each shard gets its
/// own TupleEvaluator, so the accurate baseline is computed once per pair
/// (and never for pairs whose tuples are all restored from the
/// checkpoint). Shards run concurrently on the process-wide scheduler
/// (`hpac::Scheduler`) — a worker whose shard finishes early joins the
/// team-shard jobs that nested `independent_items` region launches open,
/// instead of idling. Every tuple is deterministic, so the assembled
/// database — and the final CSV — is identical regardless of worker count,
/// and a resumed campaign ends with a CSV byte-identical to an
/// uninterrupted one.
class Campaign {
 public:
  /// Validates the plan eagerly (unknown benchmark or device names,
  /// empty axes, duplicate tuple keys) and throws hpac::Error/ConfigError
  /// before any evaluation work.
  explicit Campaign(CampaignPlan plan);

  /// Execute (or resume) the campaign against a private ResultStore on
  /// `plan.output_path`, then finalize it (canonical-order rewrite of the
  /// journal). Propagates the first exception a shard raises after
  /// in-flight shards drain; the checkpoint then holds every record
  /// completed before the failure.
  CampaignResult run();

  /// Execute (or resume) against a caller-owned store — the serving path:
  /// a daemon can point readers at `store` while the campaign writes, and
  /// every completed tuple is visible to `store.snapshot()` the moment its
  /// journal row is flushed. Restores any plan tuples the store already
  /// holds instead of re-evaluating them. Does NOT finalize: the journal
  /// stays in append order and the store stays writable (call
  /// `store.finalize(result.db)` for the canonical file).
  CampaignResult run(ResultStore& store);

  /// The canonical (benchmark, device, spec, items-per-thread) identity of
  /// a tuple — the key resume matches checkpoint rows against.
  static std::string tuple_key(const std::string& benchmark, const std::string& device,
                               const std::string& spec_text, std::uint64_t items_per_thread);

  const CampaignPlan& plan() const { return plan_; }

  /// Tuple-level introspection for external drivers: the distributed
  /// campaign claims tuple leases against exactly this enumeration, so the
  /// index <-> (benchmark, device, spec, ipt) mapping is shared state
  /// between cooperating processes and must stay deterministic for a
  /// given plan (it is: construction order is the plan's axis order).
  std::size_t tuple_count() const { return keys_.size(); }
  const std::vector<std::string>& tuple_keys() const { return keys_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// One planned tuple; references stay valid for the Campaign's lifetime.
  struct Tuple {
    const std::string& benchmark;
    const std::string& device;  ///< canonical preset name
    const pragma::ApproxSpec& spec;
    std::uint64_t items_per_thread;
  };
  Tuple tuple(std::size_t index) const;

 private:
  struct Shard {
    std::string benchmark;
    sim::DeviceConfig device;
    /// Shared: every shard of a device references one spec vector.
    std::shared_ptr<const std::vector<pragma::ApproxSpec>> specs;
    std::size_t first_tuple = 0;  ///< index of the shard's first tuple
    std::size_t tuple_count = 0;
  };

  CampaignPlan plan_;
  std::vector<Shard> shards_;
  std::vector<std::string> keys_;  ///< canonical key per tuple index
};

/// The execution harness's tuple step (paper §2.3), shared by Campaign
/// shards, DistributedCampaign workers and TuningService: the accurate
/// program runs once per (benchmark, device) pair, on the pair's first
/// tuple, and every tuple of the pair is measured against that baseline.
/// Pairs are built lazily and kept for the evaluator's lifetime.
/// Single-threaded: one instance belongs to one thread at a time.
class TupleEvaluator {
 public:
  TupleEvaluator();
  ~TupleEvaluator();
  TupleEvaluator(const TupleEvaluator&) = delete;
  TupleEvaluator& operator=(const TupleEvaluator&) = delete;

  /// Measure one tuple. `device` is a preset name for sim::device_by_name.
  /// Infeasible configurations yield a record with feasible = false, as
  /// Explorer::run_config does; unknown names throw ConfigError.
  RunRecord evaluate(const std::string& benchmark, const std::string& device,
                     const pragma::ApproxSpec& spec, std::uint64_t items_per_thread);

 private:
  struct Pair;  ///< one benchmark instance and the Explorer that owns its baseline
  std::unordered_map<std::string, std::unique_ptr<Pair>> pairs_;
};

}  // namespace hpac::harness
