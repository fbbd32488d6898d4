#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pragma/spec.hpp"

namespace hpac::approx {

/// Per-thread TAF (temporal approximate function memoization) state machine
/// (paper §2.3 and §3.1.3).
///
/// The GPU algorithm (Figure 4d) gives every thread a private state machine
/// over the iterations of its own grid-stride loop: the thread records the
/// outputs of its last `hSize` accurate executions in a sliding window;
/// when the window's relative standard deviation falls below the user
/// threshold the thread enters a *stable regime* and answers the next
/// `pSize` invocations with its most recent output instead of computing.
///
/// Storage models the block's shared memory, which is the paper's key
/// memory design: state is sized by resident threads, not total threads,
/// and `RegionExecutor::ac_state_bytes_per_block` charges it against the
/// device's per-block budget before a launch runs. Multi-dimensional
/// outputs keep one window per output dimension; the activation criterion
/// is the *maximum* RSD across dimensions (the conservative choice: every
/// output must look stable).
///
/// RSD uses a sign-robust denominator (mean |value| instead of |mean|): it
/// coincides with the paper's sigma/mu whenever the window shares a sign,
/// and avoids a division by ~zero for mean-zero outputs such as force
/// components. This is a deliberate substitution for the paper's formula:
/// with |mean| a window of LavaMD force components that cancel to ~0 would
/// never look stable however small its spread.
class TafState {
 public:
  /// `storage` must provide at least `storage_doubles(...)` doubles; the
  /// window and the last-output slot are carved from it.
  TafState(const pragma::TafParams& params, int out_dims, std::span<double> storage);

  /// Doubles of shared memory one thread's TAF state occupies.
  static std::size_t storage_doubles(int history_size, int out_dims);
  /// Bytes including the integer bookkeeping (cursor, fill count, credits).
  static std::size_t footprint_bytes(int history_size, int out_dims);

  /// Return the state machine to its just-constructed state (empty window,
  /// no credits, no prediction) without touching the storage span. The
  /// executor reuses one set of states across all teams of a launch —
  /// `reset()` between teams is the paper's "destroyed at kernel end"
  /// semantics without the per-team reallocation.
  void reset() {
    filled_ = 0;
    cursor_ = 0;
    credits_ = 0;
    has_last_ = false;
    std::fill(running_.begin(), running_.end(), 0.0);
  }

  /// Activation function: true while the thread holds prediction credits.
  bool should_approximate() const { return credits_ > 0; }

  /// Whether predict() has a meaningful value to return (at least one
  /// accurate execution recorded). Minority lanes forced to approximate by
  /// a group decision before their first accurate run have no prediction.
  bool has_prediction() const { return has_last_; }

  /// Record the outputs of an accurate execution; slides the window and,
  /// when the window is full and max-RSD < threshold, enters the stable
  /// regime (granting `pSize` credits) and restarts the window. Defined
  /// inline below — it runs once per accurate item in the executor's hot
  /// loop.
  void record_accurate(std::span<const double> outputs);

  /// Produce the memoized prediction (the most recent accurate output).
  /// Consumes one credit when available; forced predictions (credits == 0)
  /// are permitted for group decisions and consume nothing. Inline for the
  /// same reason as `record_accurate`.
  void predict(std::span<double> outputs);

  int credits() const { return credits_; }
  int window_fill() const { return filled_; }
  /// Max-RSD of the current window; +inf until the window is full.
  /// Exposed for tests and for the harness's diagnostics.
  ///
  /// O(out_dims): computed from the running sum / |value| sum / squared
  /// sum that `record_accurate` maintains incrementally, instead of the
  /// historical O(history_size * out_dims) two-pass recompute. This is
  /// the ONLY formulation — there is no per-build fallback — so TAF
  /// activation decisions (and therefore sweep CSVs) are identical
  /// across scalar/SIMD builds and vector widths. The change in
  /// summation shape shifted the RSD bits once, against re-captured
  /// goldens (tests/test_taf.cpp, TafGolden.*). Catastrophic
  /// cancellation in `E[x²] − μ²` is clamped at zero variance.
  double window_rsd() const;

 private:
  pragma::TafParams params_;
  int out_dims_;
  std::span<double> window_;  ///< ring buffer, hSize rows x out_dims
  std::span<double> last_;    ///< latest accurate output
  /// Running per-dimension window statistics, `3 * out_dims` doubles:
  /// [0, D) value sums, [D, 2D) |value| sums, [2D, 3D) squared sums.
  /// Host-side bookkeeping for the O(out_dims) `window_rsd`; NOT part of
  /// the modeled shared-memory footprint (a GPU implementation keeps
  /// these in registers), so `storage_doubles`/`footprint_bytes` — and
  /// every feasibility decision — are unchanged.
  std::vector<double> running_;
  int filled_ = 0;
  int cursor_ = 0;
  int credits_ = 0;
  bool has_last_ = false;
};

namespace detail {
/// Out-of-line throw keeps the inlined state-machine paths free of
/// exception machinery.
[[noreturn]] void throw_taf_dims_mismatch();
}  // namespace detail

inline void TafState::record_accurate(std::span<const double> outputs) {
  if (outputs.size() != static_cast<std::size_t>(out_dims_)) {
    detail::throw_taf_dims_mismatch();
  }
  // Incremental statistics: when the full ring wraps, the value being
  // overwritten leaves the running sums before the new one enters. The
  // subtract-then-add sequence is deterministic, so any accumulated
  // rounding drift is identical on every build — bit-stable CSVs.
  const bool window_full = filled_ == params_.history_size;
  double* sums = running_.data();
  double* abs_sums = sums + out_dims_;
  double* sq_sums = abs_sums + out_dims_;
  for (int d = 0; d < out_dims_; ++d) {
    const std::size_t slot = static_cast<std::size_t>(cursor_) * out_dims_ + d;
    const double v = outputs[d];
    if (window_full) {
      const double old = window_[slot];
      sums[d] -= old;
      abs_sums[d] -= std::abs(old);
      sq_sums[d] -= old * old;
    }
    sums[d] += v;
    abs_sums[d] += std::abs(v);
    sq_sums[d] += v * v;
    window_[slot] = v;
    last_[static_cast<std::size_t>(d)] = v;
  }
  has_last_ = true;
  cursor_ = (cursor_ + 1) % params_.history_size;
  filled_ = std::min(filled_ + 1, params_.history_size);
  if (filled_ == params_.history_size && window_rsd() < params_.rsd_threshold) {
    // Stable regime: grant pSize predictions and restart the history so the
    // next decision is based on fresh post-regime outputs.
    credits_ = params_.prediction_size;
    filled_ = 0;
    cursor_ = 0;
    std::fill(running_.begin(), running_.end(), 0.0);
  }
}

inline void TafState::predict(std::span<double> outputs) {
  if (outputs.size() != static_cast<std::size_t>(out_dims_)) {
    detail::throw_taf_dims_mismatch();
  }
  for (int d = 0; d < out_dims_; ++d) {
    outputs[static_cast<std::size_t>(d)] = has_last_ ? last_[static_cast<std::size_t>(d)] : 0.0;
  }
  if (credits_ > 0) --credits_;
}

}  // namespace hpac::approx
