#include "approx/region.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "approx/hierarchy.hpp"
#include "approx/perforation.hpp"
#include "approx/taf.hpp"
#include "common/annotated_mutex.hpp"
#include "common/error.hpp"
#include "common/scheduler.hpp"
#include "common/strings.hpp"
#include "sim/memory_model.hpp"

namespace hpac::approx {

namespace {

using pragma::ApproxSpec;
using pragma::HierarchyLevel;
using pragma::Technique;
using sim::LaneMask;

// --- default tuning and the shared host pool -------------------------------

common::Mutex& tuning_mutex() {
  static common::Mutex m;
  return m;
}

ExecTuning& default_tuning_storage() {
  static ExecTuning tuning;
  return tuning;
}

// Team shards run on Scheduler::shared(): the same workers that drive
// Explorer sweeps and Campaign shards, so whichever worker goes idle first
// joins a nested launch's shards instead of them being gated behind a
// dedicated pool.

/// Per-warp scratch carried between the decision phase and the execution
/// phase of one grid-stride step (needed because block-level decisions
/// depend on every warp's ballot).
struct WarpScratch {
  LaneMask active = 0;
  LaneMask wishes = 0;
  LaneMask reusable = 0;                      ///< lanes with something to reuse
  std::vector<double> in;                     ///< gathered inputs, ws x in_dims
  std::vector<IactTable::Match> match;        ///< per-lane nearest entry
};

/// Tables per warp an iACT spec runs with: its `tables_per_warp`, or one
/// table per lane when the clause leaves it out.
int tables_per_warp(const pragma::IactParams& iact, int warp_size) {
  return iact.tables_per_warp > 0 ? iact.tables_per_warp : warp_size;
}

// --- per-technique policies of the grid-stride walk -------------------------
//
// A policy is the state its technique keeps across a context's teams.
// `RunContext` overloads the memoizing policies' steps on the policy type
// — `decide` in Phase A, `reuse` and `record` in Phase B — so
// `walk<Policy>` binds the technique at compile time and makes no indirect
// call of its own.

/// `none` and `perfo(...)`: every lane that survives perforation runs the
/// accurate path; the walk needs nothing else.
struct AccuratePolicy {
  static constexpr bool kMemoizes = false;
  static constexpr bool kGathers = false;
  void reset() {}
};

/// `memo(out:...)`: one TAF state machine per thread (paper Figure 4d).
struct TafPolicy {
  static constexpr bool kMemoizes = true;
  static constexpr bool kGathers = false;
  const pragma::TafParams& params;
  std::vector<double> storage;   ///< every state's window, zero-filled, one block
  std::vector<TafState> states;  ///< indexed by thread within the team
  void reset() {
    for (auto& state : states) state.reset();
  }
};

/// `memo(in:...)`: warp-shared input tables with a reading phase before and
/// a single-writer writing phase after execution (paper §3.1.4). Inputs are
/// gathered, and their loads charged, in Phase A.
struct IactPolicy {
  static constexpr bool kMemoizes = true;
  static constexpr bool kGathers = true;
  const pragma::IactParams& params;
  int tables_per_warp;
  int lanes_per_table;
  std::vector<double> storage;    ///< every table's entries, zero-filled, one block
  std::vector<IactTable> tables;  ///< `tables_per_warp` per warp of the team
  void reset() {
    for (auto& table : tables) table.reset();
  }
};

/// Everything one region execution needs; avoids threading a dozen
/// parameters through the walk and its policies.
///
/// A context executes teams [team_begin, team_end) of the launch with its
/// own AC state, charging only those teams' ledgers of the launch's shared
/// `KernelTracker`, so several contexts over disjoint team ranges can run
/// concurrently; their `ExecStats` are folded in shard order afterwards.
/// An audited context logs each executed item's declared extents into its
/// own shard log right after the binding call that touched them. AC
/// state (TAF windows, iACT tables) is allocated once per context, as one
/// block per policy, and `reset()` between teams instead of reallocated —
/// the launch-invariant hoisting half of the fast path. Whether that state
/// fits the block's shared memory was decided by `validate_launch` before
/// any context exists, so nothing here can fail on it.
class RunContext {
 public:
  RunContext(const RuntimeCosts& costs, const ApproxSpec& spec, const RegionBinding& binding,
             std::uint64_t n, const pragma::PerfoParams* composed_perfo,
             sim::KernelTracker& tracker, std::uint64_t team_begin, std::uint64_t team_end,
             audit::ShardLog* audit_log)
      : dev_(tracker.device()),
        perfo_(composed_perfo != nullptr                   ? composed_perfo
               : spec.technique == Technique::kPerforation ? &*spec.perfo
                                                           : nullptr),
        // ini/fini adjust the *loop bounds* (paper §3.3), so they always
        // act on item indices regardless of the herded flag; only the
        // modulo patterns (small/large) distinguish step-herded from
        // per-iteration.
        herded_(perfo_ != nullptr && perfo_->herded && perfo_->kind != pragma::PerfoKind::kIni &&
                perfo_->kind != pragma::PerfoKind::kFini),
        costs_(costs),
        spec_(spec),
        binding_(binding),
        n_(n),
        team_begin_(team_begin),
        team_end_(team_end),
        tracker_(tracker),
        commit_log_(audit_log),
        read_log_(binding.read_extents ? audit_log : nullptr),
        coalesce_(dev_),
        warp_size_(dev_.warp_size),
        threads_per_team_(tracker.launch().threads_per_team),
        warps_per_team_(tracker.launch().warps_per_team(dev_)),
        total_threads_(tracker.launch().total_threads()),
        steps_(tracker.launch().steps_for(n)) {
    out_buf_.resize(static_cast<std::size_t>(warp_size_) *
                    static_cast<std::size_t>(binding.out_dims));
    scratch_.resize(warps_per_team_);
    for (auto& s : scratch_) {
      s.in.resize(static_cast<std::size_t>(warp_size_) *
                  static_cast<std::size_t>(std::max(1, binding.in_dims)));
      s.match.resize(static_cast<std::size_t>(warp_size_));
    }
  }

  /// Run the technique over this context's team range and return its
  /// event counters. Timing is finalized once, by the launch, after every
  /// shard has charged the tracker.
  ExecStats execute() {
    if (spec_.technique == Technique::kTafMemo) {
      walk(taf_policy());
    } else if (spec_.technique == Technique::kIactMemo) {
      walk(iact_policy());
    } else {
      walk(AccuratePolicy{});  // none, perfo(...)
    }
    return stats_;
  }

 private:
  // --- geometry helpers -------------------------------------------------

  /// First item of warp `w` of `team` at grid-stride `step` (its lane 0).
  std::uint64_t item_of(std::uint64_t team, std::uint32_t w, std::uint64_t step) const {
    return step * total_threads_ + team * threads_per_team_ +
           static_cast<std::uint64_t>(w) * warp_size_;
  }

  /// Lanes of this warp that are both real threads and map to items < n.
  /// Both constraints bound a *prefix* of the warp (thread ids and items
  /// are affine in the lane index), so the mask is computed arithmetically
  /// — no per-lane loop for any step, full or partial.
  LaneMask active_mask(std::uint32_t w, std::uint64_t first_item) const {
    if (first_item >= n_) return 0;
    const std::uint64_t lanes =
        std::min<std::uint64_t>({static_cast<std::uint64_t>(warp_size_),
                                 threads_per_team_ - w * static_cast<std::uint64_t>(warp_size_),
                                 n_ - first_item});
    return sim::full_mask(static_cast<int>(lanes));
  }

  /// Lane `lane`'s `dims` doubles of a packed warp buffer.
  static std::span<double> lane_slice(std::vector<double>& buf, int lane, int dims) {
    return std::span<double>(buf).subspan(static_cast<std::size_t>(lane) * dims,
                                          static_cast<std::size_t>(dims));
  }
  std::span<double> lane_out(int lane) { return lane_slice(out_buf_, lane, binding_.out_dims); }

  /// The one perforation filter (paper §3.1.5). `perfo_` is the spec's own
  /// for `perfo(...)` or, in a Figure-2 composition, the directive around
  /// the memoized region. Every active warp-step pays the check; perforated
  /// lanes are counted as covered and skipped and never reach the policy,
  /// so they never touch AC state. Returns the lanes that still execute.
  LaneMask perforate(LaneMask active, std::uint64_t first_item, std::uint64_t step,
                     sim::WarpLedger& ledger) {
    if (perfo_ == nullptr || active == 0) return active;
    ledger.charge_compute(costs_.perfo_check);
    LaneMask exec = active;
    if (herded_) {
      if (perfo_skip_step(*perfo_, step, steps_)) exec = 0;
    } else {
      const pragma::PerfoParams& perfo = *perfo_;
      sim::for_each_lane(active, [&](int lane) {
        const std::uint64_t item = first_item + static_cast<std::uint64_t>(lane);
        if (perfo_skip_item(perfo, item, n_)) exec &= ~(1ull << lane);
      });
    }
    const auto skipped = static_cast<std::uint64_t>(sim::popcount(active & ~exec));
    stats_.region_invocations += skipped;
    stats_.skipped_items += skipped;
    return exec;
  }

  /// Charge the memory traffic of loading per-item inputs for `mask` lanes
  /// (one latency round) and optionally storing outputs.
  void charge_item_memory(sim::WarpLedger& ledger, std::uint64_t first_item, LaneMask load_mask,
                          LaneMask store_mask) {
    if (load_mask != 0 && binding_.in_bytes > 0) {
      const std::uint32_t tx = coalesce_.unit_stride_transactions(first_item, binding_.in_bytes,
                                                                  load_mask, warp_size_);
      ledger.charge_memory(tx, 1);
    }
    if (store_mask != 0 && binding_.out_bytes > 0) {
      const std::uint32_t tx = coalesce_.unit_stride_transactions(first_item, binding_.out_bytes,
                                                                  store_mask, warp_size_);
      ledger.charge_memory(tx, 0);  // stores are fire-and-forget
    }
  }

  // --- group decision helpers ---------------------------------------------

  /// Phase-A cost of the hierarchy machinery, charged per warp.
  void charge_decision_cost(sim::WarpLedger& ledger) {
    ledger.charge_compute(costs_.activation_check);
    if (spec_.level == HierarchyLevel::kWarp) {
      ledger.charge_compute(costs_.ballot);
    } else if (spec_.level == HierarchyLevel::kBlock) {
      ledger.charge_compute(costs_.ballot + costs_.atomic_add);
      ledger.charge_barrier(costs_.barrier);
    }
  }

  /// Resolve the per-lane approximate mask from the wishes and the level:
  /// each thread's own wish, or the warp's or block's majority.
  LaneMask resolve_mask(const WarpScratch& s, bool block_decision) const {
    if (spec_.level == HierarchyLevel::kThread) return s.wishes & s.active;
    const bool group = spec_.level == HierarchyLevel::kWarp ? warp_majority(s.wishes, s.active)
                                                            : block_decision;
    return group ? s.active : 0;
  }

  void count_forced(const WarpScratch& s, LaneMask approx_mask) {
    if (spec_.level == HierarchyLevel::kThread) return;
    stats_.forced_approx +=
        static_cast<std::uint64_t>(sim::popcount(approx_mask & s.active & ~s.wishes));
    stats_.forced_accurate +=
        static_cast<std::uint64_t>(sim::popcount(s.active & ~approx_mask & s.wishes));
  }

  // --- the grid-stride walk ------------------------------------------------

  /// The one loop every technique runs: team → step → warp. Per step,
  /// Phase A builds each warp's active mask, perforates it and, for a
  /// memoizing policy, collects the lanes' wishes (and which lanes have
  /// something to reuse) and the block tally. Phase B resolves each warp's
  /// approximate lanes by thread wish, warp majority or block majority,
  /// runs the accurate lanes, lets the policy fill the approximated ones,
  /// commits the warp, lets the policy learn from the accurate lanes, then
  /// charges the warp's paths and item memory and counts it. Within a
  /// warp, every lane's `accurate` runs before any lane's `commit`, and the
  /// accurate-path cost is queried after the commit.
  template <class Policy>
  void walk(Policy policy) {
    for (std::uint64_t team = team_begin_; team < team_end_; ++team) {
      if (team != team_begin_) policy.reset();
      for (std::uint64_t step = 0; step < steps_; ++step) {
        // Phase A: activation wishes and (for block level) the tally.
        BlockTally tally;
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          WarpScratch& s = scratch_[w];
          sim::WarpLedger& ledger = tracker_.warp(team, w);
          const std::uint64_t first_item = item_of(team, w, step);
          s.active = perforate(active_mask(w, first_item), first_item, step, ledger);
          if (s.active == 0) continue;
          if constexpr (Policy::kMemoizes) {
            decide(policy, w, s, first_item, ledger);
            charge_decision_cost(ledger);
            if (spec_.level == HierarchyLevel::kBlock) tally.add(s.wishes, s.active);
          }
        }
        const bool block_decision =
            spec_.level == HierarchyLevel::kBlock && tally.majority();

        // Phase B: execute the chosen path per warp.
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          WarpScratch& s = scratch_[w];
          if (s.active == 0) continue;
          sim::WarpLedger& ledger = tracker_.warp(team, w);
          const std::uint64_t first_item = item_of(team, w, step);
          LaneMask approx_mask = 0;
          if constexpr (Policy::kMemoizes) {
            approx_mask = resolve_mask(s, block_decision) & s.reusable;
            count_forced(s, approx_mask);
          }
          const LaneMask acc_mask = s.active & ~approx_mask;
          stats_.region_invocations += static_cast<std::uint64_t>(sim::popcount(s.active));
          const std::span<double> out(out_buf_);
          if (acc_mask != 0) {
            const auto in = Policy::kGathers ? std::span<const double>(s.in)
                                             : std::span<const double>();
            binding_.accurate_batch(first_item, acc_mask, in, out);
            if (read_log_ != nullptr) read_log_->record_reads(binding_, first_item, acc_mask);
          }
          std::array<double, 2> paths{0.0, 0.0};  // accurate, approximate
          if constexpr (Policy::kMemoizes) paths[1] = reuse(policy, w, s, approx_mask);
          binding_.commit_batch(first_item, s.active, out);
          if (commit_log_ != nullptr) commit_log_->record_commits(binding_, first_item, s.active);
          if (acc_mask != 0) {
            paths[0] = binding_.accurate_cost_batch(first_item, acc_mask);
            if constexpr (Policy::kMemoizes) paths[0] += record(policy, w, s, acc_mask, ledger);
          }
          ledger.charge_paths(paths);
          // A partially perforated warp still touches nearly the same
          // memory segments (fragmentation), which the coalescing model
          // captures by counting segments of the surviving lanes.
          charge_item_memory(ledger, first_item, Policy::kGathers ? 0 : acc_mask, s.active);
          stats_.accurate_items += static_cast<std::uint64_t>(sim::popcount(acc_mask));
          stats_.approx_items += static_cast<std::uint64_t>(sim::popcount(approx_mask));
        }
      }
    }
  }

  // --- TAF policy ------------------------------------------------------------

  TafPolicy taf_policy() {
    const std::size_t per_thread =
        TafState::storage_doubles(spec_.taf->history_size, binding_.out_dims);
    TafPolicy policy{*spec_.taf, std::vector<double>(per_thread * threads_per_team_), {}};
    const std::span<double> storage(policy.storage);
    policy.states.reserve(threads_per_team_);
    for (std::uint32_t t = 0; t < threads_per_team_; ++t) {
      policy.states.emplace_back(policy.params, binding_.out_dims,
                                 storage.subspan(t * per_thread, per_thread));
    }
    return policy;
  }

  /// The states of warp `w`'s threads, indexed by lane.
  TafState* warp_states(TafPolicy& policy, std::uint32_t w) const {
    return policy.states.data() + static_cast<std::size_t>(w) * warp_size_;
  }

  /// Lanes without a prediction cannot approximate; they fall back to the
  /// accurate path (only reachable for forced minorities).
  void decide(TafPolicy& policy, std::uint32_t w, WarpScratch& s, std::uint64_t,
              sim::WarpLedger&) {
    const TafState* states = warp_states(policy, w);
    LaneMask wishes = 0;
    LaneMask reusable = 0;
    sim::for_each_lane(s.active, [&](int lane) {
      if (states[lane].should_approximate()) wishes = sim::with_lane(wishes, lane);
      if (states[lane].has_prediction()) reusable = sim::with_lane(reusable, lane);
    });
    s.wishes = wishes;
    s.reusable = reusable;
  }

  /// Predict the approximated lanes' outputs; returns the approximate
  /// path's cycles.
  double reuse(TafPolicy& policy, std::uint32_t w, WarpScratch&, LaneMask approx_mask) {
    TafState* states = warp_states(policy, w);
    sim::for_each_lane(approx_mask, [&](int lane) { states[lane].predict(lane_out(lane)); });
    return approx_mask != 0 ? costs_.taf_predict_per_value * binding_.out_dims : 0.0;
  }

  /// Push the accurate lanes' outputs into their windows; returns the
  /// cycles this adds to the accurate path.
  double record(TafPolicy& policy, std::uint32_t w, WarpScratch&, LaneMask acc_mask,
                sim::WarpLedger& ledger) {
    const int od = binding_.out_dims;
    TafState* states = warp_states(policy, w);
    sim::for_each_lane(acc_mask, [&](int lane) {
      TafState& state = states[lane];
      const int credits_before = state.credits();
      state.record_accurate(lane_out(lane));
      if (credits_before == 0 && state.credits() > 0) {
        ++stats_.taf_stable_entries;
      }
    });
    ledger.charge_shared(static_cast<std::uint32_t>(od), dev_.shared_mem_access_cycles);
    return costs_.taf_record_per_value * policy.params.history_size * od;
  }

  // --- iACT policy -----------------------------------------------------------

  IactPolicy iact_policy() {
    const pragma::IactParams& iact = *spec_.iact;
    const int tpw = tables_per_warp(iact, warp_size_);
    const std::size_t per_table =
        IactTable::storage_doubles(iact.table_size, binding_.in_dims, binding_.out_dims);
    const Replacement replacement =
        iact.clock_replacement ? Replacement::kClock : Replacement::kRoundRobin;
    const std::uint32_t table_count = warps_per_team_ * static_cast<std::uint32_t>(tpw);
    IactPolicy policy{iact, tpw, warp_size_ / tpw, std::vector<double>(per_table * table_count),
                      {}};
    const std::span<double> storage(policy.storage);
    policy.tables.reserve(table_count);
    for (std::uint32_t i = 0; i < table_count; ++i) {
      policy.tables.emplace_back(iact.table_size, binding_.in_dims, binding_.out_dims,
                                 replacement, storage.subspan(i * per_table, per_table));
    }
    return policy;
  }

  /// Warp `w`'s tables; lane `l` uses table `l / lanes_per_table`.
  static IactTable* warp_tables(IactPolicy& policy, std::uint32_t w) {
    return policy.tables.data() + static_cast<std::size_t>(w) * policy.tables_per_warp;
  }

  /// Reading phase: gather the inputs and probe the tables. Every
  /// invocation pays the table scan — the cost iACT can never amortize
  /// (paper insight 4). A forced lane with an empty table has nothing to
  /// reuse; it falls back to the accurate path.
  void decide(IactPolicy& policy, std::uint32_t w, WarpScratch& s, std::uint64_t first_item,
              sim::WarpLedger& ledger) {
    const pragma::IactParams& iact = policy.params;
    const int id = binding_.in_dims;
    IactTable* tables = warp_tables(policy, w);
    const int lanes_per_table = policy.lanes_per_table;
    binding_.gather_batch(first_item, s.active, std::span<double>(s.in));
    if (read_log_ != nullptr) read_log_->record_reads(binding_, first_item, s.active);
    LaneMask wishes = 0;
    LaneMask reusable = 0;
    sim::for_each_lane(s.active, [&](int lane) {
      IactTable::Match& m = s.match[static_cast<std::size_t>(lane)];
      m = tables[lane / lanes_per_table].find_nearest(lane_slice(s.in, lane, id));
      if (m.valid()) reusable = sim::with_lane(reusable, lane);
      if (m.valid() && m.distance < iact.threshold) {
        wishes = sim::with_lane(wishes, lane);
        ++stats_.iact_hits;
      }
    });
    s.wishes = wishes;
    s.reusable = reusable;
    ledger.charge_compute(iact.table_size *
                          (id * costs_.iact_distance_per_dim + costs_.iact_sqrt));
    ledger.charge_shared(static_cast<std::uint32_t>(iact.table_size * id),
                         dev_.shared_mem_access_cycles);
    charge_item_memory(ledger, first_item, s.active, 0);
  }

  /// Copy each approximated lane's nearest cached output; returns the
  /// approximate path's cycles.
  double reuse(IactPolicy& policy, std::uint32_t w, WarpScratch& s, LaneMask approx_mask) {
    IactTable* tables = warp_tables(policy, w);
    const int lanes_per_table = policy.lanes_per_table;
    sim::for_each_lane(approx_mask, [&](int lane) {
      IactTable& table = tables[lane / lanes_per_table];
      const auto& m = s.match[static_cast<std::size_t>(lane)];
      auto cached = table.output_at(m.index);
      std::copy(cached.begin(), cached.end(), lane_out(lane).begin());
      table.mark_used(m.index);
    });
    return approx_mask != 0 ? 2.0 * binding_.out_dims : 0.0;
  }

  /// Writing phase: one writer per table — the accurate lane whose input
  /// was farthest from every cached entry. One pass over the accurate
  /// lanes (ascending, so the first strictly-farther lane wins ties
  /// exactly as a per-table ascending scan would). Returns the cycles this
  /// adds to the accurate path.
  double record(IactPolicy& policy, std::uint32_t w, WarpScratch& s, LaneMask acc_mask,
                sim::WarpLedger& ledger) {
    const int tpw = policy.tables_per_warp;
    const int lanes_per_table = policy.lanes_per_table;
    ledger.charge_barrier(costs_.barrier);
    std::array<int, 64> writer;
    std::array<double, 64> farthest;
    std::fill_n(writer.begin(), tpw, -1);
    std::fill_n(farthest.begin(), tpw, -1.0);
    sim::for_each_lane(acc_mask, [&](int lane) {
      const auto& m = s.match[static_cast<std::size_t>(lane)];
      const double d =
          m.valid() ? m.distance : std::numeric_limits<double>::infinity();
      const auto t = static_cast<std::size_t>(lane / lanes_per_table);
      if (d > farthest[t]) {
        farthest[t] = d;
        writer[t] = lane;
      }
    });
    IactTable* tables = warp_tables(policy, w);
    for (int t = 0; t < tpw; ++t) {
      const int lane = writer[static_cast<std::size_t>(t)];
      if (lane < 0) continue;
      tables[t].insert(lane_slice(s.in, lane, binding_.in_dims), lane_out(lane));
    }
    return costs_.iact_insert_per_value * (binding_.in_dims + binding_.out_dims);
  }

  const sim::DeviceConfig& dev_;
  const pragma::PerfoParams* perfo_;  ///< the spec's own or the composed one; null if none
  bool herded_;                       ///< perforation drops whole grid-stride steps
  const RuntimeCosts& costs_;
  const ApproxSpec& spec_;
  const RegionBinding& binding_;
  std::uint64_t n_;
  std::uint64_t team_begin_;
  std::uint64_t team_end_;
  sim::KernelTracker& tracker_;
  audit::ShardLog* commit_log_;  ///< null unless the launch is audited
  audit::ShardLog* read_log_;    ///< null unless audited and reads are declared
  sim::CoalescingModel coalesce_;
  int warp_size_;
  std::uint32_t threads_per_team_;
  std::uint32_t warps_per_team_;
  std::uint64_t total_threads_;
  std::uint64_t steps_;
  ExecStats stats_;
  std::vector<double> out_buf_;
  std::vector<WarpScratch> scratch_;
};

/// Team range [begin, end) of shard `s` when `teams` are cut into `shards`
/// contiguous, near-equal ranges: shard s gets one extra team while the
/// remainder lasts. The live shards and the differential audit's
/// reversed-shard pass both cut with this.
std::pair<std::uint64_t, std::uint64_t> shard_team_range(std::uint64_t teams,
                                                         std::uint64_t shards,
                                                         std::uint64_t s) {
  const std::uint64_t per_shard = teams / shards;
  const std::uint64_t extra = teams % shards;
  const std::uint64_t begin = s * per_shard + std::min(s, extra);
  return {begin, begin + per_shard + (s < extra ? 1 : 0)};
}

/// Binding and configuration checks shared by `run` and `run_composed`,
/// all made before any work starts. Returns the per-block AC state bytes.
std::size_t validate_launch(const RegionExecutor& executor, const ApproxSpec& spec,
                            const RegionBinding& binding, const sim::LaunchConfig& launch) {
  const sim::DeviceConfig& dev = executor.device();
  launch.validate(dev);
  HPAC_REQUIRE(binding.accurate_batch != nullptr, "region needs an accurate path");
  HPAC_REQUIRE(binding.accurate_cost_batch != nullptr, "region needs a cost function");
  HPAC_REQUIRE(binding.commit_batch != nullptr, "region needs a commit function");
  HPAC_REQUIRE(binding.out_dims >= 1, "region needs at least one output");
  if (spec.technique == Technique::kIactMemo) {
    // The paper's MiniFE case: iACT "only supports computations with
    // uniform input sizes for all threads" (§4.1); a region that cannot
    // declare a fixed-width input key cannot use input memoization.
    if (binding.in_dims <= 0) {
      throw ConfigError("iACT requires uniform, fixed-width region inputs (in_dims > 0)");
    }
    HPAC_REQUIRE(binding.gather_batch != nullptr,
                 "iACT requires a gather function for the declared inputs");
    const int tpw = tables_per_warp(*spec.iact, dev.warp_size);
    if (tpw > dev.warp_size || dev.warp_size % tpw != 0) {
      throw ConfigError(strings::format("tables per warp (%d) must divide the warp size (%d)",
                                        tpw, dev.warp_size));
    }
  }
  const std::size_t ac_bytes = executor.ac_state_bytes_per_block(spec, binding, launch);
  if (ac_bytes > dev.shared_mem_per_block) {
    throw ConfigError(strings::format(
        "AC state (%zu bytes) exceeds shared memory per block (%u bytes)", ac_bytes,
        dev.shared_mem_per_block));
  }
  return ac_bytes;
}

}  // namespace

RegionExecutor::RegionExecutor(sim::DeviceConfig dev, RuntimeCosts costs)
    : dev_(std::move(dev)), costs_(costs), tuning_(default_tuning()) {}

void RegionExecutor::set_default_tuning(const ExecTuning& tuning) {
  common::MutexLock lock(tuning_mutex());
  default_tuning_storage() = tuning;
}

ExecTuning RegionExecutor::default_tuning() {
  common::MutexLock lock(tuning_mutex());
  return default_tuning_storage();
}

void RegionExecutor::set_default_audit(audit::AuditMode mode, bool differential) {
  common::MutexLock lock(tuning_mutex());
  default_tuning_storage().audit_mode = mode;
  default_tuning_storage().audit_differential = differential;
}

std::size_t RegionExecutor::ac_state_bytes_per_block(const pragma::ApproxSpec& spec,
                                                     const RegionBinding& binding,
                                                     const sim::LaunchConfig& launch) const {
  switch (spec.technique) {
    case Technique::kTafMemo:
      return static_cast<std::size_t>(launch.threads_per_team) *
             TafState::footprint_bytes(spec.taf->history_size, binding.out_dims);
    case Technique::kIactMemo:
      return static_cast<std::size_t>(launch.warps_per_team(dev_)) *
             static_cast<std::size_t>(tables_per_warp(*spec.iact, dev_.warp_size)) *
             IactTable::footprint_bytes(spec.iact->table_size, binding.in_dims,
                                        binding.out_dims);
    default:
      return 0;
  }
}

RegionReport RegionExecutor::run_impl(const pragma::ApproxSpec& spec,
                                      const RegionBinding& binding, std::uint64_t n,
                                      const sim::LaunchConfig& launch, std::size_t ac_bytes,
                                      const pragma::PerfoParams* composed_perfo) const {
  const std::uint64_t teams = launch.num_teams;

  // Decide the team-shard count. Sharding never changes results (each team
  // is executed exactly as the serial engine would, and the counters fold
  // in a fixed order), so this is purely a wall-clock decision: the binding
  // must declare independent items and the launch must cover enough items
  // to amortize the fan-out. The team count only caps the shard count, so
  // few-team launches (the items-per-thread axis) shard too. A launch
  // reached from inside an Explorer or Campaign worker shards as well —
  // its shards become an open job on the shared scheduler, joined by
  // whichever workers are idle, and the submitting thread executes the
  // remainder itself.
  const std::size_t shards = binding.independent_items && n >= tuning_.min_items
                                 ? Scheduler::recommended_threads(tuning_.max_threads, teams)
                                 : 1;

  // Commit-conflict auditing: validates the independent_items declaration
  // instead of assuming it. The auditor is constructed before the launch
  // runs (its differential pre-image must be the true initial state) and
  // audits regardless of whether *this* launch actually sharded — a
  // mislabeled binding is a hazard on every machine, not just the one it
  // raced on. Fully inert when audit_mode == kOff: not even constructed.
  std::optional<audit::LaunchAudit> auditor;
  if (tuning_.audit_mode != audit::AuditMode::kOff && binding.independent_items && n > 0) {
    auditor.emplace(binding, n, shards, tuning_.audit_differential,
                    tuning_.audit_extent_cache ? &audit_extent_cache_ : nullptr);
    if (auditor->missing_extents() && tuning_.audit_mode == audit::AuditMode::kEnforce) {
      throw ConfigError(std::string(audit::kConflictToken) + " audit: binding '" +
                        auditor->binding_name() +
                        "' declares independent_items but no commit_extents; the claim "
                        "cannot be verified");
    }
  }
  const auto shard_log = [&](std::size_t s) -> audit::ShardLog* {
    return auditor && auditor->instrumented() ? &auditor->log(s) : nullptr;
  };

  // Every launch, sharded or not, charges one tracker: each shard owns a
  // contiguous team range, so no ledger is written by two threads. The
  // counters fold in shard index order — fixed when the ranges were cut —
  // so every downstream CSV byte is independent of which thread executed
  // which shard. One shard runs inline on the calling thread.
  sim::KernelTracker tracker(dev_, launch, ac_bytes);
  std::vector<ExecStats> shard_stats(shards);
  Scheduler::shared().parallel_for(
      shards,
      [&](std::size_t, std::size_t s) {
        const auto [begin, end] = shard_team_range(teams, shards, s);
        shard_stats[s] = RunContext(costs_, spec, binding, n, composed_perfo, tracker, begin, end,
                                    shard_log(s))
                             .execute();
      },
      /*max_participants=*/shards);

  RegionReport report;
  report.timing = tracker.finalize();
  report.stats.shared_bytes_per_block = ac_bytes;
  report.stats.host_shards = shards;
  for (const ExecStats& stats : shard_stats) report.stats.add_counters(stats);

  if (auditor) {
    auditor->analyze();
    if (auditor->differential_ready()) {
      // Differential pass: re-execute the launch under a reversed-shard
      // serial schedule — a legal schedule of the sharded run, since the
      // engine's per-team state resets make results decomposition- and
      // order-invariant *when items are independent* — and byte-compare
      // the committed output. The shard count is a fixed constant (not
      // the machine's), so findings are deterministic across hosts, and
      // the application state is restored to the audited run's bytes
      // afterwards, so auditing never changes what the app observes.
      const audit::Snapshot after = auditor->take_snapshot();
      auditor->restore_pre();
      const std::uint64_t diff_shards =
          std::min<std::uint64_t>(teams, audit::LaunchAudit::kDifferentialShards);
      sim::KernelTracker scratch(dev_, launch, ac_bytes);
      for (std::uint64_t s = diff_shards; s-- > 0;) {
        const auto [begin, end] = shard_team_range(teams, diff_shards, s);
        RunContext(costs_, spec, binding, n, composed_perfo, scratch, begin, end, nullptr)
            .execute();
      }
      auditor->compare_with(after);
      auditor->restore(after);
    }
    std::vector<audit::ConflictReport> conflicts = auditor->take_conflicts();
    if (!conflicts.empty()) {
      if (tuning_.audit_mode == audit::AuditMode::kEnforce) {
        throw ConfigError(std::string(audit::kConflictToken) + " audit failed for binding '" +
                          auditor->binding_name() +
                          "': " + audit::LaunchAudit::summarize(conflicts));
      }
      report.stats.conflicts = std::move(conflicts);
    }
  }
  report.stats.simd_level = simd::active_level();
  return report;
}

RegionReport RegionExecutor::run(const pragma::ApproxSpec& spec, const RegionBinding& binding,
                                 std::uint64_t n, const sim::LaunchConfig& launch) const {
  spec.validate();
  const std::size_t ac_bytes = validate_launch(*this, spec, binding, launch);
  return run_impl(spec, binding, n, launch, ac_bytes, nullptr);
}

RegionReport RegionExecutor::run_composed(const pragma::ApproxSpec& perfo_spec,
                                          const pragma::ApproxSpec& memo_spec,
                                          const RegionBinding& binding, std::uint64_t n,
                                          const sim::LaunchConfig& launch) const {
  perfo_spec.validate();
  memo_spec.validate();
  if (perfo_spec.technique != Technique::kPerforation) {
    throw ConfigError("composed execution requires a perfo(...) directive first");
  }
  if (memo_spec.technique != Technique::kTafMemo &&
      memo_spec.technique != Technique::kIactMemo) {
    throw ConfigError("composed execution requires a memo(...) directive second");
  }
  const std::size_t ac_bytes = validate_launch(*this, memo_spec, binding, launch);
  return run_impl(memo_spec, binding, n, launch, ac_bytes, &*perfo_spec.perfo);
}

}  // namespace hpac::approx
