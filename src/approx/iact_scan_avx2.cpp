// AVX2 iACT table-scan kernel: four probes of lanes that share a table,
// scanned against its rows in one pass (256-bit lanes = four probes).
// Compiled with -mavx2 only when CMake's ISA probe passes (see
// HPAC_SIMD_COMPILED_AVX2); callers reach it through
// select_iact_batch_scan, which consults the runtime cpuid gate in
// hpac::simd. Deliberately no -mfma: the kernel must round exactly like
// the scalar build's mul+add.
//
// Bit-identity contract (what makes HPAC_SIMD a pure perf knob):
//  * lanes are PROBES and rows are visited in ascending order; each
//    lane's squared distance to a row accumulates `sq += diff * diff`
//    from 0.0 in ascending-dimension order, the scalar scan's exact
//    sequence, with explicit mul/add vector ops (never FMA, which would
//    round differently from the scalar build's mul+add);
//  * each lane folds its rows through the same strict `sq < best_sq` /
//    `sqrt(sq) < best_distance` comparisons the scalar scan performs, as
//    compare/blend masks, preserving the first-strictly-nearer-in-the-
//    sqrt-domain tie-break;
//  * the kernel skips the scalar scan's early abandon: a full sum is never
//    smaller than the partial sum the scalar scan abandons at, so the
//    abandoned row fails `sq < best_sq` either way.

#include "approx/iact_scan.hpp"

#if defined(HPAC_SIMD_COMPILED_AVX2) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include <cstddef>
#include <limits>

namespace hpac::approx::detail {

namespace {

constexpr int kW = 4;  // doubles per __m256d

/// Batched scan, lanes = probes. Lanes past `args.count` repeat probe 0
/// and their results are dropped. `kDims > 0` keeps the probes' columns
/// in registers; `kDims == 0` rebuilds a column per (row, dimension).
template <int kDims>
void batch_scan(const BatchScanArgs& args, ScanResult* results) {
  const int dims = kDims > 0 ? kDims : args.in_dims;
  const double* p[kW];
  for (int lane = 0; lane < kW; ++lane) p[lane] = args.probes[lane < args.count ? lane : 0];
  const auto column = [&](int d) { return _mm256_set_pd(p[3][d], p[2][d], p[1][d], p[0][d]); };
  __m256d columns[kDims > 0 ? kDims : 1];
  if constexpr (kDims > 0) {
    for (int d = 0; d < kDims; ++d) columns[d] = column(d);
  }

  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d best_sq = inf;
  __m256d best_distance = inf;
  __m256d best_row = _mm256_set1_pd(-1.0);
  for (int row = 0; row < args.valid_count; ++row) {
    const double* entry = args.rows + static_cast<std::ptrdiff_t>(row) * args.row_stride;
    __m256d sq = _mm256_setzero_pd();
    for (int d = 0; d < dims; ++d) {
      const __m256d probe = kDims > 0 ? columns[d] : column(d);
      const __m256d diff = _mm256_sub_pd(probe, _mm256_broadcast_sd(entry + d));
      sq = _mm256_add_pd(sq, _mm256_mul_pd(diff, diff));
    }
    const __m256d nearer_sq = _mm256_cmp_pd(sq, best_sq, _CMP_LT_OQ);
    best_sq = _mm256_blendv_pd(best_sq, sq, nearer_sq);
    const __m256d distance = _mm256_sqrt_pd(sq);
    const __m256d nearer =
        _mm256_and_pd(nearer_sq, _mm256_cmp_pd(distance, best_distance, _CMP_LT_OQ));
    best_distance = _mm256_blendv_pd(best_distance, distance, nearer);
    best_row = _mm256_blendv_pd(best_row, _mm256_set1_pd(static_cast<double>(row)), nearer);
  }

  double lane_distance[kW];
  double lane_row[kW];
  _mm256_storeu_pd(lane_distance, best_distance);
  _mm256_storeu_pd(lane_row, best_row);
  for (int lane = 0; lane < args.count; ++lane) {
    results[lane].index = static_cast<int>(lane_row[lane]);
    results[lane].distance = lane_distance[lane];
  }
}

}  // namespace

BatchScanFn iact_batch_scan_fn_avx2(int in_dims) {
  switch (in_dims) {
    case 1:
      return &batch_scan<1>;
    case 2:
      return &batch_scan<2>;
    case 3:
      return &batch_scan<3>;
    case 4:
      return &batch_scan<4>;
    case 5:
      return &batch_scan<5>;
    case 6:
      return &batch_scan<6>;
    case 7:
      return &batch_scan<7>;
    case 8:
      return &batch_scan<8>;
    default:
      return &batch_scan<0>;
  }
}

}  // namespace hpac::approx::detail

#else

namespace hpac::approx::detail {

BatchScanFn iact_batch_scan_fn_avx2(int) { return nullptr; }

}  // namespace hpac::approx::detail

#endif
