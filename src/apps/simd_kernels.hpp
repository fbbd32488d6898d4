#pragma once

// Vectorized application math for the three apps whose `accurate` paths
// dominate sweep time: blackscholes batch pricing
// (lanes = option contracts, wired through the warp-per-call
// `accurate_batch` binding hook), the binomial backward induction
// (lanes = tree nodes of one level, applied inside `tree_price`) and
// kmeans (lanes = observations in the nearest-centroid search, wired
// through `accurate_batch` like blackscholes; lanes = dims in the host
// centroid sums). Every kernel
// is bit-identical to its scalar reference — same per-lane operation
// order, explicit mul/add (no FMA) — so QoI vectors, error metrics and
// sweep CSVs are invariant across dispatch levels (enforced by the
// `simd` tests and the CI matrix). AVX2 is the only vector level: the
// kernels are written on `__m256d` in app_kernels_avx2.cpp, the one TU
// built with -mavx2. Each `*_fn()` dispatcher lives in the baseline-ISA
// simd_kernels.cpp and returns its AVX2 kernel when that level is active
// and nullptr (the app's scalar path) otherwise.

#include <cstdint>

#include "common/simd.hpp"

namespace hpac::apps::kernels {

/// Price `n` packed call options; all six arrays have length `n`.
/// Processes four contracts per vector with a scalar remainder that calls
/// `Blackscholes::call_price` verbatim.
using BlackscholesBatchFn = void (*)(const double* spot, const double* strike,
                                     const double* rate, const double* volatility,
                                     const double* expiry, double* out, int n);

/// One full backward induction over `values[0 .. steps]` (leaf payoffs
/// already in place): level `l` updates `values[i] = discount *
/// (p_up * values[i+1] + p_down * values[i])` for `i in [0, l]`.
using BinomialInductFn = void (*)(double* values, int steps, double discount, double p_up,
                                  double p_down);

/// Nearest centroid of `count` (1..4) observations at once: `labels[l]`
/// is the first cluster, in ascending order, whose squared distance to
/// `points[l]` (length `dims`) is strictly smallest. `centroids` is
/// row-major clusters x dims.
using KMeansAssignFn = void (*)(const double* const* points, int count, const double* centroids,
                                int dims, int clusters, int* labels);

/// Lloyd centroid sums over `n` row-major points: for every point with
/// `membership[i] >= 0`, in point order, bump `counts[c]` and add the
/// point to row `c` of `sums` (clusters x dims).
using KMeansAccumulateFn = void (*)(const double* points, const int* membership,
                                    std::uint64_t n, int dims, double* sums,
                                    std::uint64_t* counts);

/// Kernel for the current `simd::active_level()`; nullptr → scalar path.
BlackscholesBatchFn blackscholes_batch_fn();
BinomialInductFn binomial_induct_fn();
KMeansAssignFn kmeans_assign_fn();
KMeansAccumulateFn kmeans_accumulate_fn();

/// AVX2 entry points (nullptr when AVX2 is not compiled in).
BlackscholesBatchFn blackscholes_batch_avx2();
BinomialInductFn binomial_induct_avx2();
KMeansAssignFn kmeans_assign_avx2();
KMeansAccumulateFn kmeans_accumulate_avx2();

}  // namespace hpac::apps::kernels
