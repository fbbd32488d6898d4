#include "approx/region.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "approx/hierarchy.hpp"
#include "approx/perforation.hpp"
#include "approx/taf.hpp"
#include "common/annotated_mutex.hpp"
#include "common/error.hpp"
#include "common/function_ref.hpp"
#include "common/scheduler.hpp"
#include "common/strings.hpp"
#include "sim/memory_model.hpp"
#include "sim/shared_memory.hpp"

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

// Team shards run on Scheduler::shared(): the same work-stealing workers
// that drive Explorer sweeps and Campaign shards, so a nested launch's
// shards can be stolen by whichever worker goes idle first instead of
// being gated behind a dedicated pool.

// --- audit instrumentation ---------------------------------------------------
//
// When the launch is audited (ExecTuning::audit_mode != kOff and the
// binding declares independent_items), the bound dispatch is wrapped once
// per launch with adapters that log each executed item's declared extents
// into the context's shard log. The wrap happens at bind time, so the
// audit-off path executes exactly the instructions it executed before the
// auditor existed — there is no per-item branch.

struct AuditCommitAdapter {
  FunctionRef<void(std::uint64_t, LaneMask, std::span<const double>)> inner;
  const RegionBinding* binding;
  audit::ShardLog* log;
  void operator()(std::uint64_t first_item, LaneMask lanes, std::span<const double> out) const {
    inner(first_item, lanes, out);
    sim::for_each_lane(lanes, [&](int lane) {
      log->record_commit(*binding, first_item + static_cast<std::uint64_t>(lane));
    });
  }
};

struct AuditGatherAdapter {
  FunctionRef<void(std::uint64_t, LaneMask, std::span<double>)> inner;
  const RegionBinding* binding;
  audit::ShardLog* log;
  void operator()(std::uint64_t first_item, LaneMask lanes, std::span<double> in) const {
    inner(first_item, lanes, in);
    sim::for_each_lane(lanes, [&](int lane) {
      log->record_read(*binding, first_item + static_cast<std::uint64_t>(lane));
    });
  }
};

struct AuditAccurateAdapter {
  FunctionRef<void(std::uint64_t, LaneMask, std::span<const double>, std::span<double>)> inner;
  const RegionBinding* binding;
  audit::ShardLog* log;
  void operator()(std::uint64_t first_item, LaneMask lanes, std::span<const double> in,
                  std::span<double> out) const {
    inner(first_item, lanes, in, out);
    sim::for_each_lane(lanes, [&](int lane) {
      log->record_read(*binding, first_item + static_cast<std::uint64_t>(lane));
    });
  }
};

/// Per-warp scratch carried between the decision phase and the execution
/// phase of one grid-stride step (needed because block-level decisions
/// depend on every warp's ballot).
struct WarpScratch {
  LaneMask active = 0;
  LaneMask wishes = 0;
  bool group_decision = false;
  std::vector<double> in;                     ///< gathered inputs, ws x in_dims
  std::vector<IactTable::Match> match;        ///< per-lane nearest entry
};

/// Everything one region execution needs; avoids threading a dozen
/// parameters through the per-technique drivers.
///
/// A context executes teams [team_begin, team_end) of the launch against
/// its own `KernelTracker` shard and its own AC state, so several contexts
/// can run concurrently and be merged deterministically afterwards. AC
/// state (TAF windows, iACT tables, the shared-memory arena) is allocated
/// once per context and `reset()` between teams instead of reallocated —
/// the launch-invariant hoisting half of the fast path.
class RunContext {
 public:
  RunContext(const sim::DeviceConfig& dev, Replacement replacement, const RuntimeCosts& costs,
             const ApproxSpec& spec, const RegionBinding& binding, std::uint64_t n,
             const sim::LaunchConfig& launch, std::size_t ac_bytes,
             const pragma::PerfoParams* composed_perfo, std::uint64_t team_begin,
             std::uint64_t team_end, audit::ShardLog* audit_log = nullptr)
      : dev_(dev),
        composed_perfo_(composed_perfo),
        replacement_(replacement),
        costs_(costs),
        spec_(spec),
        binding_(binding),
        n_(n),
        launch_(launch),
        team_begin_(team_begin),
        team_end_(team_end),
        tracker_(dev, launch, ac_bytes, team_begin, team_end),
        coalesce_(dev),
        arena_(dev),
        warp_size_(dev.warp_size),
        threads_per_team_(launch.threads_per_team),
        warps_per_team_(launch.warps_per_team(dev)),
        total_threads_(launch.total_threads()),
        steps_(launch.steps_for(n)),
        gather_(binding.gather_batch),
        accurate_(binding.accurate_batch),
        cost_(binding.accurate_cost_batch),
        commit_(binding.commit_batch) {
    stats_.shared_bytes_per_block = ac_bytes;
    out_buf_.resize(static_cast<std::size_t>(warp_size_) *
                    static_cast<std::size_t>(binding.out_dims));
    scratch_.resize(warps_per_team_);
    for (auto& s : scratch_) {
      s.in.resize(static_cast<std::size_t>(warp_size_) *
                  static_cast<std::size_t>(std::max(1, binding.in_dims)));
      s.match.resize(static_cast<std::size_t>(warp_size_));
    }
    // Audited launches wrap the bound dispatch once, here; the audit-off
    // path never reaches these assignments. (`gather_` may refer to an
    // empty `gather_batch`: only iACT calls it, and `validate_launch`
    // requires it there.)
    if (audit_log != nullptr) {
      audit_commit_adapter_ = AuditCommitAdapter{commit_, &binding, audit_log};
      commit_ = audit_commit_adapter_;
      if (binding.read_extents) {
        audit_gather_adapter_ = AuditGatherAdapter{gather_, &binding, audit_log};
        gather_ = audit_gather_adapter_;
        audit_accurate_adapter_ = AuditAccurateAdapter{accurate_, &binding, audit_log};
        accurate_ = audit_accurate_adapter_;
      }
    }
  }

  /// Run the technique over this context's team range. Does not finalize
  /// timing — shards are merged first.
  void execute_body() {
    switch (spec_.technique) {
      case Technique::kNone:
        run_baseline();
        break;
      case Technique::kPerforation:
        run_perforation();
        break;
      case Technique::kTafMemo:
        run_taf();
        break;
      case Technique::kIactMemo:
        run_iact();
        break;
    }
  }

  RegionReport finalize_report() {
    RegionReport report;
    report.timing = tracker_.finalize();
    report.stats = stats_;
    return report;
  }

  const sim::KernelTracker& tracker() const { return tracker_; }
  const ExecStats& stats() const { return stats_; }

 private:
  // --- geometry helpers -------------------------------------------------

  /// Item handled by `lane` of warp `w` of `team` at grid-stride `step`.
  std::uint64_t item_of(std::uint64_t team, std::uint32_t w, int lane,
                        std::uint64_t step) const {
    const std::uint64_t tid = team * threads_per_team_ +
                              static_cast<std::uint64_t>(w) * warp_size_ +
                              static_cast<std::uint64_t>(lane);
    return step * total_threads_ + tid;
  }

  /// Lanes of this warp that are both real threads and map to items < n.
  /// Both constraints bound a *prefix* of the warp (thread ids and items
  /// are affine in the lane index), so the mask is computed arithmetically
  /// — no per-lane loop for any step, full or partial.
  LaneMask active_mask(std::uint64_t team, std::uint32_t w, std::uint64_t step) const {
    const std::uint32_t lane0 = w * static_cast<std::uint32_t>(warp_size_);
    std::uint64_t lanes = std::min<std::uint64_t>(static_cast<std::uint64_t>(warp_size_),
                                                  threads_per_team_ - lane0);
    const std::uint64_t first_item =
        step * total_threads_ + team * threads_per_team_ + lane0;
    if (first_item >= n_) return 0;
    lanes = std::min<std::uint64_t>(lanes, n_ - first_item);
    return sim::full_mask(static_cast<int>(lanes));
  }

  std::span<double> out_span() { return std::span<double>(out_buf_); }

  std::span<double> lane_out(int lane) {
    return std::span<double>(out_buf_).subspan(
        static_cast<std::size_t>(lane) * binding_.out_dims,
        static_cast<std::size_t>(binding_.out_dims));
  }

  std::span<double> lane_in(WarpScratch& s, int lane) {
    return std::span<double>(s.in).subspan(
        static_cast<std::size_t>(lane) * binding_.in_dims,
        static_cast<std::size_t>(binding_.in_dims));
  }

  /// Figure-2 composition: when a perforation directive decorates the
  /// loop around a memoized region, perforated iterations are removed
  /// before the memoization logic runs (they are counted as skipped and
  /// never touch AC state). Returns true when the *whole step* is herded
  /// away; otherwise trims the warp's active mask in place.
  bool composed_step_skipped(std::uint64_t team, std::uint64_t step) {
    if (composed_perfo_ == nullptr) return false;
    const bool bounds_based = composed_perfo_->kind == pragma::PerfoKind::kIni ||
                              composed_perfo_->kind == pragma::PerfoKind::kFini;
    if (bounds_based || !composed_perfo_->herded) return false;
    if (!perfo_skip_step(*composed_perfo_, step, steps_)) return false;
    for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
      const LaneMask active = active_mask(team, w, step);
      if (active == 0) continue;
      const auto count = static_cast<std::uint64_t>(sim::popcount(active));
      stats_.region_invocations += count;
      stats_.skipped_items += count;
      tracker_.warp(team, w).charge_compute(costs_.perfo_check);
    }
    return true;
  }

  LaneMask composed_lane_filter(LaneMask active, std::uint64_t first_item,
                                sim::WarpLedger& ledger) {
    if (composed_perfo_ == nullptr || active == 0) return active;
    const bool bounds_based = composed_perfo_->kind == pragma::PerfoKind::kIni ||
                              composed_perfo_->kind == pragma::PerfoKind::kFini;
    if (!bounds_based && composed_perfo_->herded) return active;  // step-level, handled above
    LaneMask exec = active;
    sim::for_each_lane(active, [&](int lane) {
      const std::uint64_t item = first_item + static_cast<std::uint64_t>(lane);
      if (perfo_skip_item(*composed_perfo_, item, n_)) exec &= ~(1ull << lane);
    });
    const auto skipped = static_cast<std::uint64_t>(sim::popcount(active & ~exec));
    stats_.region_invocations += skipped;
    stats_.skipped_items += skipped;
    ledger.charge_compute(costs_.perfo_check);
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

  // --- baseline ----------------------------------------------------------

  void run_baseline() {
    const std::span<double> out = out_span();
    for (std::uint64_t team = team_begin_; team < team_end_; ++team) {
      for (std::uint64_t step = 0; step < steps_; ++step) {
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          const LaneMask active = active_mask(team, w, step);
          if (active == 0) continue;
          sim::WarpLedger& ledger = tracker_.warp(team, w);
          const std::uint64_t first_item = item_of(team, w, 0, step);
          accurate_(first_item, active, {}, out);
          commit_(first_item, active, out);
          const std::array<double, 1> paths{cost_(first_item, active)};
          ledger.charge_paths(paths);
          charge_item_memory(ledger, first_item, active, active);
          const auto count = static_cast<std::uint64_t>(sim::popcount(active));
          stats_.region_invocations += count;
          stats_.accurate_items += count;
        }
      }
    }
  }

  // --- perforation ---------------------------------------------------------

  void run_perforation() {
    const pragma::PerfoParams& perfo = *spec_.perfo;
    const std::span<double> out = out_span();
    // ini/fini adjust the *loop bounds* (paper §3.3), so they always act
    // on item indices regardless of the herded flag; only the modulo
    // patterns (small/large) distinguish step-herded from per-iteration.
    const bool bounds_based = perfo.kind == pragma::PerfoKind::kIni ||
                              perfo.kind == pragma::PerfoKind::kFini;
    for (std::uint64_t team = team_begin_; team < team_end_; ++team) {
      for (std::uint64_t step = 0; step < steps_; ++step) {
        const bool herded_skip =
            !bounds_based && perfo.herded && perfo_skip_step(perfo, step, steps_);
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          const LaneMask active = active_mask(team, w, step);
          if (active == 0) continue;
          sim::WarpLedger& ledger = tracker_.warp(team, w);
          const std::uint64_t first_item = item_of(team, w, 0, step);
          stats_.region_invocations += static_cast<std::uint64_t>(sim::popcount(active));
          ledger.charge_compute(costs_.perfo_check);

          LaneMask exec = active;
          if (perfo.herded && !bounds_based) {
            if (herded_skip) exec = 0;
          } else {
            sim::for_each_lane(active, [&](int lane) {
              const std::uint64_t item = first_item + static_cast<std::uint64_t>(lane);
              if (perfo_skip_item(perfo, item, n_)) exec &= ~(1ull << lane);
            });
          }

          const int skipped = sim::popcount(active) - sim::popcount(exec);
          stats_.skipped_items += static_cast<std::uint64_t>(skipped);
          if (exec == 0) continue;

          accurate_(first_item, exec, {}, out);
          commit_(first_item, exec, out);
          const std::array<double, 1> paths{cost_(first_item, exec)};
          ledger.charge_paths(paths);
          // A partially perforated warp still touches nearly the same
          // memory segments (fragmentation), which the coalescing model
          // captures by counting segments of the surviving lanes.
          charge_item_memory(ledger, first_item, exec, exec);
          stats_.accurate_items += static_cast<std::uint64_t>(sim::popcount(exec));
        }
      }
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

  /// Resolve the per-lane approximate mask from the wishes and the level.
  LaneMask resolve_mask(const WarpScratch& s, bool block_decision) const {
    switch (spec_.level) {
      case HierarchyLevel::kThread:
        return s.wishes & s.active;
      case HierarchyLevel::kWarp:
        return s.group_decision ? s.active : 0;
      case HierarchyLevel::kBlock:
        return block_decision ? s.active : 0;
    }
    return 0;
  }

  void count_forced(const WarpScratch& s, LaneMask approx_mask) {
    if (spec_.level == HierarchyLevel::kThread) return;
    stats_.forced_approx +=
        static_cast<std::uint64_t>(sim::popcount(approx_mask & s.active & ~s.wishes));
    stats_.forced_accurate +=
        static_cast<std::uint64_t>(sim::popcount(s.active & ~approx_mask & s.wishes));
  }

  // --- TAF -----------------------------------------------------------------

  void run_taf() {
    const pragma::TafParams& taf = *spec_.taf;
    const int od = binding_.out_dims;
    const std::size_t per_thread = TafState::storage_doubles(taf.history_size, od);
    const std::span<double> out = out_span();

    // One set of per-thread state machines, reset between teams.
    taf_states_.reserve(threads_per_team_);
    for (std::uint32_t t = 0; t < threads_per_team_; ++t) {
      taf_states_.emplace_back(taf, od, arena_.alloc_doubles(per_thread));
    }
    std::vector<TafState>& states = taf_states_;

    for (std::uint64_t team = team_begin_; team < team_end_; ++team) {
      if (team != team_begin_) {
        for (auto& state : states) state.reset();
      }

      for (std::uint64_t step = 0; step < steps_; ++step) {
        if (composed_step_skipped(team, step)) continue;
        // Phase A: activation wishes and (for warp/block) group decisions.
        BlockTally tally;
        bool team_has_active = false;
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          WarpScratch& s = scratch_[w];
          s.active = composed_lane_filter(active_mask(team, w, step),
                                          item_of(team, w, 0, step), tracker_.warp(team, w));
          s.wishes = 0;
          if (s.active == 0) continue;
          team_has_active = true;
          const std::uint32_t tid_base = w * static_cast<std::uint32_t>(warp_size_);
          LaneMask wishes = 0;
          sim::for_each_lane(s.active, [&](int lane) {
            if (states[tid_base + static_cast<std::uint32_t>(lane)].should_approximate()) {
              wishes = sim::with_lane(wishes, lane);
            }
          });
          s.wishes = wishes;
          charge_decision_cost(tracker_.warp(team, w));
          if (spec_.level == HierarchyLevel::kWarp) {
            s.group_decision = warp_majority(s.wishes, s.active);
          } else if (spec_.level == HierarchyLevel::kBlock) {
            tally.add(s.wishes, s.active);
          }
        }
        if (!team_has_active) continue;
        const bool block_decision =
            spec_.level == HierarchyLevel::kBlock && tally.majority();

        // Phase B: execute the chosen path per warp.
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          WarpScratch& s = scratch_[w];
          if (s.active == 0) continue;
          sim::WarpLedger& ledger = tracker_.warp(team, w);
          const std::uint64_t first_item = item_of(team, w, 0, step);
          const std::uint32_t tid_base = w * static_cast<std::uint32_t>(warp_size_);
          LaneMask approx_mask = resolve_mask(s, block_decision);
          // Lanes without a prediction cannot approximate; they fall back
          // to the accurate path (only reachable for forced minorities).
          sim::for_each_lane(approx_mask, [&](int lane) {
            if (!states[tid_base + static_cast<std::uint32_t>(lane)].has_prediction()) {
              approx_mask &= ~(1ull << lane);
            }
          });
          count_forced(s, approx_mask);
          const LaneMask acc_mask = s.active & ~approx_mask;
          stats_.region_invocations += static_cast<std::uint64_t>(sim::popcount(s.active));

          double acc_cost = 0;
          double approx_cost = 0;
          if (acc_mask != 0) {
            accurate_(first_item, acc_mask, {}, out);
            sim::for_each_lane(acc_mask, [&](int lane) {
              TafState& state = states[tid_base + static_cast<std::uint32_t>(lane)];
              const int credits_before = state.credits();
              state.record_accurate(lane_out(lane));
              if (credits_before == 0 && state.credits() > 0) {
                ++stats_.taf_stable_entries;
              }
            });
            acc_cost = cost_(first_item, acc_mask);
          }
          sim::for_each_lane(approx_mask, [&](int lane) {
            states[tid_base + static_cast<std::uint32_t>(lane)].predict(lane_out(lane));
          });
          commit_(first_item, s.active, out);
          if (acc_mask != 0) {
            acc_cost += costs_.taf_record_per_value * taf.history_size * od;
            ledger.charge_shared(static_cast<std::uint32_t>(od), dev_.shared_mem_access_cycles);
          }
          if (approx_mask != 0) {
            approx_cost = costs_.taf_predict_per_value * od;
          }
          const std::array<double, 2> paths{acc_cost, approx_cost};
          ledger.charge_paths(paths);
          charge_item_memory(ledger, first_item, acc_mask, s.active);
          stats_.accurate_items += static_cast<std::uint64_t>(sim::popcount(acc_mask));
          stats_.approx_items += static_cast<std::uint64_t>(sim::popcount(approx_mask));
        }
      }
    }
  }

  // --- iACT ------------------------------------------------------------------

  void run_iact() {
    const pragma::IactParams& iact = *spec_.iact;
    const int id = binding_.in_dims;
    const int od = binding_.out_dims;
    const std::span<double> out = out_span();
    const int tpw = iact.tables_per_warp > 0 ? iact.tables_per_warp : warp_size_;
    const int lanes_per_table = warp_size_ / tpw;
    const std::size_t per_table = IactTable::storage_doubles(iact.table_size, id, od);
    const Replacement replacement =
        iact.clock_replacement ? Replacement::kClock : replacement_;

    // One set of warp-shared tables, reset between teams.
    const std::uint32_t table_count = warps_per_team_ * static_cast<std::uint32_t>(tpw);
    tables_.reserve(table_count);
    for (std::uint32_t i = 0; i < table_count; ++i) {
      tables_.emplace_back(iact.table_size, id, od, replacement,
                           arena_.alloc_doubles(per_table));
    }

    for (std::uint64_t team = team_begin_; team < team_end_; ++team) {
      if (team != team_begin_) {
        for (auto& table : tables_) table.reset();
      }

      for (std::uint64_t step = 0; step < steps_; ++step) {
        if (composed_step_skipped(team, step)) continue;
        // Phase A: gather inputs, probe tables, form wishes.
        BlockTally tally;
        bool team_has_active = false;
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          WarpScratch& s = scratch_[w];
          s.active = composed_lane_filter(active_mask(team, w, step),
                                          item_of(team, w, 0, step), tracker_.warp(team, w));
          s.wishes = 0;
          if (s.active == 0) continue;
          team_has_active = true;
          sim::WarpLedger& ledger = tracker_.warp(team, w);
          const std::uint64_t first_item = item_of(team, w, 0, step);
          IactTable* warp_tables = tables_.data() + static_cast<std::size_t>(w) * tpw;
          gather_(first_item, s.active, std::span<double>(s.in));
          LaneMask wishes = 0;
          sim::for_each_lane(s.active, [&](int lane) {
            IactTable::Match& m = s.match[static_cast<std::size_t>(lane)];
            m = warp_tables[lane / lanes_per_table].find_nearest(lane_in(s, lane));
            if (m.valid() && m.distance < iact.threshold) {
              wishes = sim::with_lane(wishes, lane);
              ++stats_.iact_hits;
            }
          });
          s.wishes = wishes;
          // Reading phase: every invocation pays the table scan — the cost
          // iACT can never amortize (paper insight 4).
          ledger.charge_compute(iact.table_size *
                                (id * costs_.iact_distance_per_dim + costs_.iact_sqrt));
          ledger.charge_shared(static_cast<std::uint32_t>(iact.table_size * id),
                               dev_.shared_mem_access_cycles);
          charge_item_memory(ledger, first_item, s.active, 0);
          charge_decision_cost(ledger);
          if (spec_.level == HierarchyLevel::kWarp) {
            s.group_decision = warp_majority(s.wishes, s.active);
          } else if (spec_.level == HierarchyLevel::kBlock) {
            tally.add(s.wishes, s.active);
          }
        }
        if (!team_has_active) continue;
        const bool block_decision =
            spec_.level == HierarchyLevel::kBlock && tally.majority();

        // Phase B: execute, then the single-writer writing phase.
        for (std::uint32_t w = 0; w < warps_per_team_; ++w) {
          WarpScratch& s = scratch_[w];
          if (s.active == 0) continue;
          sim::WarpLedger& ledger = tracker_.warp(team, w);
          const std::uint64_t first_item = item_of(team, w, 0, step);
          IactTable* warp_tables = tables_.data() + static_cast<std::size_t>(w) * tpw;
          LaneMask approx_mask = resolve_mask(s, block_decision);
          // A forced lane with an empty table has nothing to reuse; it
          // falls back to the accurate path.
          sim::for_each_lane(approx_mask, [&](int lane) {
            if (!s.match[static_cast<std::size_t>(lane)].valid()) {
              approx_mask &= ~(1ull << lane);
            }
          });
          count_forced(s, approx_mask);
          const LaneMask acc_mask = s.active & ~approx_mask;
          stats_.region_invocations += static_cast<std::uint64_t>(sim::popcount(s.active));

          double acc_cost = 0;
          double approx_cost = 0;
          if (acc_mask != 0) {
            accurate_(first_item, acc_mask, std::span<const double>(s.in), out);
          }
          sim::for_each_lane(approx_mask, [&](int lane) {
            IactTable& table = warp_tables[lane / lanes_per_table];
            const auto& m = s.match[static_cast<std::size_t>(lane)];
            auto cached = table.output_at(m.index);
            std::copy(cached.begin(), cached.end(), lane_out(lane).begin());
            table.mark_used(m.index);
          });
          commit_(first_item, s.active, out);
          if (acc_mask != 0) acc_cost = cost_(first_item, acc_mask);
          if (approx_mask != 0) approx_cost = 2.0 * od;

          // Writing phase: one writer per table — the accurate lane whose
          // input was farthest from every cached entry. One pass over the
          // accurate lanes (ascending, so the first strictly-farther lane
          // wins ties exactly as a per-table ascending scan would).
          if (acc_mask != 0) {
            ledger.charge_barrier(costs_.barrier);
            std::array<int, 64> writer;
            std::array<double, 64> farthest;
            for (int t = 0; t < tpw; ++t) {
              writer[static_cast<std::size_t>(t)] = -1;
              farthest[static_cast<std::size_t>(t)] = -1.0;
            }
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
            for (int t = 0; t < tpw; ++t) {
              const int lane = writer[static_cast<std::size_t>(t)];
              if (lane < 0) continue;
              warp_tables[t].insert(lane_in(s, lane), lane_out(lane));
            }
            acc_cost += costs_.iact_insert_per_value * (id + od);
          }

          const std::array<double, 2> paths{acc_cost, approx_cost};
          ledger.charge_paths(paths);
          charge_item_memory(ledger, first_item, 0, s.active);
          stats_.accurate_items += static_cast<std::uint64_t>(sim::popcount(acc_mask));
          stats_.approx_items += static_cast<std::uint64_t>(sim::popcount(approx_mask));
        }
      }
    }
  }

  const sim::DeviceConfig& dev_;
  const pragma::PerfoParams* composed_perfo_;
  Replacement replacement_;
  const RuntimeCosts& costs_;
  const ApproxSpec& spec_;
  const RegionBinding& binding_;
  std::uint64_t n_;
  sim::LaunchConfig launch_;
  std::uint64_t team_begin_;
  std::uint64_t team_end_;
  sim::KernelTracker tracker_;
  sim::CoalescingModel coalesce_;
  sim::SharedMemoryArena arena_;
  int warp_size_;
  std::uint32_t threads_per_team_;
  std::uint32_t warps_per_team_;
  std::uint64_t total_threads_;
  std::uint64_t steps_;
  ExecStats stats_;
  std::vector<double> out_buf_;
  std::vector<WarpScratch> scratch_;
  std::vector<TafState> taf_states_;
  std::vector<IactTable> tables_;

  // Audit wrappers around the bound dispatch (inert unless the launch is
  // audited; see the constructor).
  AuditCommitAdapter audit_commit_adapter_;
  AuditGatherAdapter audit_gather_adapter_;
  AuditAccurateAdapter audit_accurate_adapter_;

  // Hot-path dispatch, bound once per launch.
  FunctionRef<void(std::uint64_t, LaneMask, std::span<double>)> gather_;
  FunctionRef<void(std::uint64_t, LaneMask, std::span<const double>, std::span<double>)>
      accurate_;
  FunctionRef<double(std::uint64_t, LaneMask)> cost_;
  FunctionRef<void(std::uint64_t, LaneMask, std::span<const double>)> commit_;
};

/// Deterministic fold of shard counters (all commutative integer sums).
void merge_stats(ExecStats& total, const ExecStats& shard) {
  total.region_invocations += shard.region_invocations;
  total.accurate_items += shard.accurate_items;
  total.approx_items += shard.approx_items;
  total.skipped_items += shard.skipped_items;
  total.forced_approx += shard.forced_approx;
  total.forced_accurate += shard.forced_accurate;
  total.iact_hits += shard.iact_hits;
  total.taf_stable_entries += shard.taf_stable_entries;
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
    const int tpw = spec.iact->tables_per_warp > 0 ? spec.iact->tables_per_warp : dev.warp_size;
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

RegionExecutor::RegionExecutor(sim::DeviceConfig dev, Replacement replacement, RuntimeCosts costs)
    : dev_(std::move(dev)),
      replacement_(replacement),
      costs_(costs),
      tuning_(default_tuning()) {}

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
    case Technique::kIactMemo: {
      const int tpw = spec.iact->tables_per_warp > 0 ? spec.iact->tables_per_warp
                                                     : dev_.warp_size;
      return static_cast<std::size_t>(launch.warps_per_team(dev_)) *
             static_cast<std::size_t>(tpw) *
             IactTable::footprint_bytes(spec.iact->table_size, binding.in_dims,
                                        binding.out_dims);
    }
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
  // is executed exactly as the serial engine would, and merges are
  // deterministic), so this is purely a wall-clock decision: the binding
  // must declare independent items and the launch must be big enough to
  // amortize the fan-out. A launch reached from inside an Explorer or
  // Campaign worker shards too — its shards become stealable tasks on the
  // shared scheduler, picked up by whichever workers are idle, and the
  // submitting thread executes the remainder itself.
  std::size_t threads =
      tuning_.max_threads != 0 ? tuning_.max_threads : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  const std::uint64_t shard_cap =
      teams / std::max<std::uint64_t>(1, tuning_.min_teams_per_shard);
  std::size_t shards = static_cast<std::size_t>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(threads), shard_cap));
  if (!binding.independent_items || teams < tuning_.min_teams || n < tuning_.min_items) {
    shards = 1;
  }

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

  RegionReport report;
  if (shards <= 1) {
    RunContext ctx(dev_, replacement_, costs_, spec, binding, n, launch, ac_bytes,
                   composed_perfo, 0, teams, shard_log(0));
    ctx.execute_body();
    report = ctx.finalize_report();
    report.stats.host_shards = 1;
  } else {
    // Contiguous, near-equal team ranges; shard s gets one extra team while
    // the remainder lasts.
    std::vector<std::unique_ptr<RunContext>> shard_ctxs;
    shard_ctxs.reserve(shards);
    const std::uint64_t per_shard = teams / shards;
    const std::uint64_t extra = teams % shards;
    std::uint64_t begin = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint64_t length = per_shard + (s < extra ? 1 : 0);
      shard_ctxs.push_back(std::make_unique<RunContext>(
          dev_, replacement_, costs_, spec, binding, n, launch, ac_bytes, composed_perfo,
          begin, begin + length, shard_log(s)));
      begin += length;
    }
    Scheduler::shared().parallel_for(
        shard_ctxs.size(),
        [&](std::size_t, std::size_t s) { shard_ctxs[s]->execute_body(); },
        /*max_participants=*/shards);

    // Shard merge order is the shard index order — fixed above when the
    // contiguous team ranges were cut — so the folded ledgers, counters and
    // therefore every downstream CSV byte are independent of which thread
    // executed which shard.
    sim::KernelTracker total(dev_, launch, ac_bytes);
    ExecStats stats;
    stats.shared_bytes_per_block = ac_bytes;
    for (const auto& ctx : shard_ctxs) {
      total.merge(ctx->tracker());
      merge_stats(stats, ctx->stats());
    }
    stats.host_shards = shards;
    report.timing = total.finalize();
    report.stats = stats;
  }

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
      const std::uint64_t per_shard = teams / std::max<std::uint64_t>(1, diff_shards);
      const std::uint64_t extra = teams % std::max<std::uint64_t>(1, diff_shards);
      for (std::uint64_t s = diff_shards; s-- > 0;) {
        const std::uint64_t begin = s * per_shard + std::min<std::uint64_t>(s, extra);
        const std::uint64_t length = per_shard + (s < extra ? 1 : 0);
        RunContext ctx(dev_, replacement_, costs_, spec, binding, n, launch, ac_bytes,
                       composed_perfo, begin, begin + length);
        ctx.execute_body();
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
