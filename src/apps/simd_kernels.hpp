#pragma once

// Vectorized application math for the two apps whose `accurate` paths
// dominate sweep time: blackscholes batch pricing
// (lanes = option contracts, wired through the warp-per-call
// `accurate_batch` binding hook) and the binomial backward induction
// (lanes = tree nodes of one level, applied inside `tree_price` so both
// binding forms benefit). Every kernel is bit-identical to its scalar
// reference — same per-lane operation order, explicit mul/add (no FMA)
// — so QoI vectors, error metrics and sweep CSVs are invariant across
// dispatch levels (enforced by the `simd` tests and the CI matrix).

#include "common/simd.hpp"

namespace hpac::apps::kernels {

/// Price `n` packed call options; all six arrays have length `n`.
/// Processes lanes of `W` contracts with a scalar remainder that calls
/// `Blackscholes::call_price` verbatim.
using BlackscholesBatchFn = void (*)(const double* spot, const double* strike,
                                     const double* rate, const double* volatility,
                                     const double* expiry, double* out, int n);

/// One full backward induction over `values[0 .. steps]` (leaf payoffs
/// already in place): level `l` updates `values[i] = discount *
/// (p_up * values[i+1] + p_down * values[i])` for `i in [0, l]`.
using BinomialInductFn = void (*)(double* values, int steps, double discount, double p_up,
                                  double p_down);

/// Kernel for the current `simd::active_level()`; nullptr → scalar path.
BlackscholesBatchFn blackscholes_batch_fn();
BinomialInductFn binomial_induct_fn();

/// Per-ISA entry points (nullptr when that ISA is not compiled in).
BlackscholesBatchFn blackscholes_batch_sse2();
BlackscholesBatchFn blackscholes_batch_avx2();
BinomialInductFn binomial_induct_sse2();
BinomialInductFn binomial_induct_avx2();

}  // namespace hpac::apps::kernels
