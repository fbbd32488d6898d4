#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "approx/audit.hpp"
#include "approx/iact.hpp"
#include "common/simd.hpp"
#include "pragma/spec.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"
#include "sim/timing.hpp"
#include "sim/warp.hpp"

namespace hpac::approx {

/// The closure view of an annotated code region.
///
/// The paper's Clang implementation captures the annotated region as a
/// closure so the accurate path is callable as a function (§3.3); this
/// struct is the library-level equivalent. One invocation corresponds to
/// one iteration of the parallel loop the directive decorates.
///
/// Every operation is warp-batched: one call services every active lane
/// of a warp, so the runtime pays no per-item dispatch — the cost the
/// paper identifies as the one software AC must not pay. Lane `l` of the
/// mask handles item `first_item + l`, and its per-lane data lives at
/// offset `l * dims` in the packed buffer. Active lanes are always a
/// subset of the warp; iterate them with `sim::for_each_lane`. Most
/// regions are written per item and lifted with the `hpac::apps::bind_*`
/// helpers (apps/support.hpp).
///
/// Warp evaluation order: the engine runs every lane's `accurate` before
/// any lane's `commit` within a warp, so `accurate`/`gather` must not
/// read state that `commit` writes for *other* items of the same warp.
/// Warp-synchronous GPU code has the same constraint (lanes execute in
/// lockstep), and no reproduced app depends on intra-warp
/// commit-then-read ordering; a Gauss–Seidel-style in-place sweep that
/// expects interleaved per-lane order must be restructured.
struct RegionBinding {
  /// Diagnostic label used in audit reports and error messages; empty is
  /// rendered as "<unnamed>".
  std::string name;

  /// Doubles per item gathered as the iACT input key (the `in(...)`
  /// sections). Zero for TAF/perforation-only regions.
  int in_dims = 0;
  /// Doubles per item the region produces (the `out(...)` sections).
  int out_dims = 1;

  // --- region operations ---------------------------------------------------

  /// Gather inputs for every lane in `lanes`: lane `l` handles item
  /// `first_item + l` and writes `in[l*in_dims .. l*in_dims+in_dims)`.
  /// Required for iACT regions (in_dims > 0).
  std::function<void(std::uint64_t first_item, sim::LaneMask lanes, std::span<double> in)>
      gather_batch;

  /// The accurate execution path for every lane in `lanes`; outputs go to
  /// `out[l*out_dims .. l*out_dims+out_dims)`. `in` is the gathered batch
  /// buffer (empty when the region was not gathered; regions then read
  /// their own data).
  std::function<void(std::uint64_t first_item, sim::LaneMask lanes,
                     std::span<const double> in, std::span<double> out)>
      accurate_batch;

  /// Max accurate-path cycles over the lanes in `lanes` (the warp's SIMT
  /// cost). Data-dependent costs (e.g. CSR row length) are allowed;
  /// constant-cost regions return the constant in O(1).
  std::function<double(std::uint64_t first_item, sim::LaneMask lanes)> accurate_cost_batch;

  /// Commit outputs for every lane in `lanes`, in ascending lane order, to
  /// the application's device arrays. Called for accurate and approximated
  /// items, not for perforated (skipped) ones.
  std::function<void(std::uint64_t first_item, sim::LaneMask lanes,
                     std::span<const double> out)>
      commit_batch;

  // --- traffic model -------------------------------------------------------

  /// Global-memory bytes the accurate path loads/stores per item; drives
  /// the coalescing model.
  std::uint32_t in_bytes = 8;
  std::uint32_t out_bytes = 8;

  /// Declares that the binding's callbacks touch only item-local state (or
  /// commute exactly, like integer counters), so region invocations of
  /// *different items* may run on different host threads. This is what
  /// allows the executor to shard a large launch's teams across the host
  /// thread pool; results stay bit-identical because every item is still
  /// executed by exactly one thread in the same per-team order. Leave
  /// false (the default) for bindings that accumulate floating-point
  /// values across items (order-dependent rounding) or mutate shared
  /// non-atomic state.
  bool independent_items = false;

  // --- audit introspection (optional) --------------------------------------

  /// Declare the byte intervals `commit` writes for `item`, through
  /// `sink.writes(ptr, len)` (item-exclusive output) and
  /// `sink.commuting(ptr, len)` (shared state whose updates commute
  /// exactly, e.g. an atomic counter). The commit-conflict auditor
  /// (`ExecTuning::audit_mode`) verifies that exclusive intervals of
  /// distinct items never overlap — the property `independent_items`
  /// asserts. The declaration must be *complete*: `commit` must write no
  /// bytes outside the declared intervals, since the differential re-run
  /// snapshots and restores exactly these bytes (an under-declared
  /// order-dependent write is invisible to the auditor and would survive
  /// the re-run). Cheap address arithmetic only; never invoked when
  /// auditing is off. An `independent_items` binding without this
  /// callback fails `enforce` audits (the claim cannot be verified).
  std::function<void(std::uint64_t item, audit::ExtentSink& sink)> commit_extents;

  /// Declare the byte intervals the gather/accurate path reads for `item`
  /// through `sink.reads(ptr, len)`. Optional: enables static read-vs-
  /// write overlap detection; read-side dependences of bindings without
  /// it are only caught by the differential audit re-run.
  std::function<void(std::uint64_t item, audit::ExtentSink& sink)> read_extents;
};

/// Execution counters produced by a region run.
struct ExecStats {
  std::uint64_t region_invocations = 0;  ///< items covered by the launch
  std::uint64_t accurate_items = 0;
  std::uint64_t approx_items = 0;   ///< memoized predictions committed
  std::uint64_t skipped_items = 0;  ///< perforated iterations
  /// Lanes overruled by a warp/block majority (paper §4.1, LavaMD):
  std::uint64_t forced_approx = 0;    ///< wanted accurate, group approximated
  std::uint64_t forced_accurate = 0;  ///< wanted to approximate, group did not
  std::uint64_t iact_hits = 0;        ///< probes whose distance beat the threshold
  std::uint64_t taf_stable_entries = 0;  ///< times a thread entered the stable regime
  std::size_t shared_bytes_per_block = 0;
  /// Host-side team shards the launch was split into (1 = serial). Purely
  /// diagnostic — results are bit-identical for every value — but it makes
  /// the fan-out decision observable, e.g. to assert that a launch nested
  /// inside a sweep worker is no longer forced serial.
  std::size_t host_shards = 1;
  /// SIMD dispatch level active while this launch ran (see
  /// `hpac::simd::active_level`). Diagnostic like `host_shards`: results
  /// are bit-identical at every level; exposing it makes the dispatch
  /// decision observable to tests and the bench harness.
  simd::Level simd_level = simd::Level::kOff;
  /// Commit-conflict audit findings (`ExecTuning::audit_mode == kReport`;
  /// `kEnforce` throws instead of collecting). Empty when auditing is off
  /// or the launch audited clean.
  std::vector<audit::ConflictReport> conflicts;

  /// Add `other`'s eight event counters (region_invocations through
  /// taf_stable_entries) to this one's. Integer sums, so folding shards or
  /// launches in any order gives the same totals.
  void add_counters(const ExecStats& other) {
    region_invocations += other.region_invocations;
    accurate_items += other.accurate_items;
    approx_items += other.approx_items;
    skipped_items += other.skipped_items;
    forced_approx += other.forced_approx;
    forced_accurate += other.forced_accurate;
    iact_hits += other.iact_hits;
    taf_stable_entries += other.taf_stable_entries;
  }

  /// Fraction of covered items answered approximately (memo) or skipped
  /// (perforation) — the color scale of Figure 8c.
  double approx_ratio() const {
    if (region_invocations == 0) return 0.0;
    return static_cast<double>(approx_items + skipped_items) /
           static_cast<double>(region_invocations);
  }
};

/// Timing plus counters for one kernel-launch-equivalent execution.
struct RegionReport {
  sim::KernelTiming timing;
  ExecStats stats;
};

/// Cycle-cost constants of the device runtime's own operations. These are
/// small integer estimates of instruction counts; the evaluation only
/// relies on their relative magnitudes (e.g. an iACT table scan costs a
/// distance computation per entry *every* invocation, while TAF's
/// activation check is a couple of instructions).
struct RuntimeCosts {
  double activation_check = 2.0;      ///< TAF credit test
  double taf_record_per_value = 3.0;  ///< window push + RSD accumulation
  double taf_predict_per_value = 2.0; ///< shared-memory copy out
  double iact_distance_per_dim = 3.0; ///< sub/mul/add against one entry dim
  double iact_sqrt = 8.0;
  double iact_insert_per_value = 2.0;
  double ballot = 4.0;                ///< ballot + popcount
  double barrier = 20.0;              ///< __syncthreads
  double atomic_add = 10.0;           ///< shared-memory atomic (block tally)
  double perfo_check = 2.0;           ///< counter/modulo predicate
};

/// Knobs of the executor's team-sharded host parallelism. Sharding only
/// ever changes wall-clock time, never results: a launch is split into
/// contiguous team ranges of one KernelTracker, each executed exactly as
/// the serial engine would and charging only its own teams' ledgers, and
/// the shards' counters are folded in shard order.
struct ExecTuning {
  /// Host threads a single launch may use. 0 = hardware concurrency;
  /// 1 disables team sharding.
  std::size_t max_threads = 0;
  /// Launches covering fewer items than this run serially (sharding
  /// overhead would dominate). Larger launches split into
  /// min(threads, teams) shards, however few teams they have.
  std::uint64_t min_items = 1u << 14;
  /// Commit-conflict auditing of `independent_items` bindings (see
  /// `hpac::approx::audit`). `kOff` leaves the dispatch path untouched;
  /// `kReport` collects findings into `ExecStats::conflicts`; `kEnforce`
  /// throws `hpac::ConfigError` on the first conflicting launch.
  audit::AuditMode audit_mode = audit::AuditMode::kOff;
  /// With auditing on, additionally re-execute every audited launch under
  /// a reversed-shard serial schedule and byte-compare the committed
  /// output — catches read-side dependences that address tagging cannot
  /// see. Roughly doubles the cost of audited launches; application
  /// state is restored afterwards, so results are unchanged.
  bool audit_differential = false;
  /// Memoize the merged extent image differential audits build (see
  /// `audit::ExtentImageCache`): repeated launches of the same (binding,
  /// n) pair probe three items instead of walking all of them. Off →
  /// every audited launch rebuilds its image exactly as before.
  bool audit_extent_cache = true;
};

/// Executes an annotated region over a 1-D iteration space on the
/// simulated device, following the HPAC-Offload GPU algorithms:
/// grid-stride TAF (Figure 4d), warp-shared iACT tables with read/write
/// phases (§3.1.4), herded or CPU-style perforation (§3.1.5) and
/// thread/warp/block decision hierarchies (§3.1.2).
///
/// The executor is the library analogue of the compiler-generated runtime
/// call: it owns AC state placement in block shared memory (and therefore
/// the occupancy impact), the activation functions, and the SIMT cost
/// accounting.
///
/// Large launches whose binding declares `independent_items` are split
/// into contiguous team ranges submitted as one job to the process-wide
/// scheduler (`hpac::Scheduler`). The submitting thread executes shards
/// itself while idle scheduler workers — including Explorer/Campaign
/// workers whose own sweep shard finished early — join the job and take
/// the rest, so nested parallelism cooperates instead of serializing.
/// Results are bit-identical to serial execution either way.
class RegionExecutor {
 public:
  explicit RegionExecutor(sim::DeviceConfig dev, RuntimeCosts costs = RuntimeCosts{});

  /// Run the region over items [0, n) with the given launch geometry.
  /// Throws hpac::ConfigError when the configuration cannot run (AC state
  /// exceeding shared memory, tables-per-warp not dividing the warp size,
  /// iACT without uniform inputs, invalid launch).
  RegionReport run(const pragma::ApproxSpec& spec, const RegionBinding& binding,
                   std::uint64_t n, const sim::LaunchConfig& launch) const;

  /// Composed directives, the paper's Figure 2 idiom: perforation on the
  /// parallel loop plus memoization inside the surviving iterations
  ///
  ///   #pragma approx perfo(small:4)
  ///   #pragma omp ... for
  ///   for (...) {
  ///     #pragma approx memo(in:10:0.5f) in(...) out(...)
  ///     ...
  ///   }
  ///
  /// `perfo_spec` must be a perforation directive and `memo_spec` a
  /// TAF/iACT directive; perforated iterations are skipped before the
  /// memoization logic sees them (and do not touch AC state).
  RegionReport run_composed(const pragma::ApproxSpec& perfo_spec,
                            const pragma::ApproxSpec& memo_spec, const RegionBinding& binding,
                            std::uint64_t n, const sim::LaunchConfig& launch) const;

  /// Shared-memory footprint of the AC state for one block under `spec`
  /// (0 for perforation/baseline). Exposed for occupancy tests and for the
  /// Figure 3 accounting.
  std::size_t ac_state_bytes_per_block(const pragma::ApproxSpec& spec,
                                       const RegionBinding& binding,
                                       const sim::LaunchConfig& launch) const;

  const sim::DeviceConfig& device() const { return dev_; }

  /// Per-executor parallelism knobs (seeded from `default_tuning()`).
  void set_tuning(const ExecTuning& tuning) { tuning_ = tuning; }
  const ExecTuning& tuning() const { return tuning_; }

  /// Process-wide default tuning picked up by every subsequently
  /// constructed executor — the hook tests and benches use to force the
  /// serial or team-parallel paths inside apps that construct their own
  /// executors.
  static void set_default_tuning(const ExecTuning& tuning);
  static ExecTuning default_tuning();

  /// Convenience for the CLIs' `--audit` flag: clone the current default
  /// tuning, set the audit knobs, reinstall. Every executor constructed
  /// afterwards (the registry apps build their own) runs audited.
  static void set_default_audit(audit::AuditMode mode, bool differential = true);

  /// Extent-image memoization counters of this executor's differential
  /// audits (hits = O(n) walks skipped).
  audit::ExtentImageCache::Stats audit_cache_stats() const {
    return audit_extent_cache_.stats();
  }

 private:
  RegionReport run_impl(const pragma::ApproxSpec& spec, const RegionBinding& binding,
                        std::uint64_t n, const sim::LaunchConfig& launch,
                        std::size_t ac_bytes, const pragma::PerfoParams* composed_perfo) const;

  sim::DeviceConfig dev_;
  RuntimeCosts costs_;
  ExecTuning tuning_;
  /// Mutable because `run()` is const (launching does not change what the
  /// executor computes) while the cache learns shapes as launches go by.
  mutable audit::ExtentImageCache audit_extent_cache_;
};

}  // namespace hpac::approx
