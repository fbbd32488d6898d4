// AVX2 application kernels (256-bit lanes, four doubles per vector).
// Compiled with -mavx2 only when CMake's ISA probe passes
// (HPAC_SIMD_COMPILED_AVX2); reached through the dispatchers in
// simd_kernels.cpp behind the runtime cpuid gate. Deliberately no -mfma:
// lanes must round exactly like the scalar build's separate mul and add.
//
// Bit-identity contract (the whole point): each lane executes the exact
// operation sequence of `Blackscholes::call_price` / the binomial
// backward-induction statement / the kmeans distance and centroid-sum
// loops — same association, explicit mul/add (never FMA; intrinsics are
// never contracted), and scalar libm calls (`std::log`, `std::exp`)
// extracted per lane, since no vector math library is allowed to change
// rounding. IEEE-exact operations (sub/mul/add/div/sqrt/abs/select)
// produce the same bits lane-wise as scalar, so prices — and therefore
// QoI vectors, error metrics and sweep CSV bytes — are invariant across
// dispatch levels.

#include "apps/simd_kernels.hpp"

#if defined(HPAC_SIMD_COMPILED_AVX2) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <limits>

#include "apps/blackscholes.hpp"

namespace hpac::apps::kernels {

namespace {

constexpr int kW = 4;  // doubles per __m256d

__m256d set1(double x) { return _mm256_set1_pd(x); }

/// Clear / flip the sign bit: exact |x| and -x.
__m256d abs_v(__m256d a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
__m256d neg_v(__m256d a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }

/// Lane-wise `x < 0 ? if_lt : if_ge`.
__m256d select_lt_zero(__m256d x, __m256d if_lt, __m256d if_ge) {
  const __m256d m = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
  return _mm256_blendv_pd(if_ge, if_lt, m);
}

/// Apply scalar libm `fn` to every lane. The round-trip through memory
/// is bit-exact; the per-lane calls are the same calls the scalar path
/// makes, so there is no vector-math rounding divergence to reason
/// about.
template <double Fn(double)>
__m256d lanes_libm(__m256d x) {
  double tmp[kW];
  _mm256_storeu_pd(tmp, x);
  for (double& lane : tmp) lane = Fn(lane);
  return _mm256_loadu_pd(tmp);
}

double libm_log(double x) { return std::log(x); }
double libm_exp(double x) { return std::exp(x); }

/// Vector CND replicating blackscholes.cpp's `cnd` term by term:
/// polynomial terms left-associated (`a3*k*k*k` = `((a3*k)*k)*k`), the
/// term sum left-associated, and `1/sqrt(2*pi)` the same compile-time
/// constant the scalar TU folds.
__m256d cnd_v(__m256d d) {
  const __m256d one = set1(1.0);
  const __m256d k =
      _mm256_div_pd(one, _mm256_add_pd(one, _mm256_mul_pd(set1(0.2316419), abs_v(d))));
  const __m256d t1 = _mm256_mul_pd(set1(0.31938153), k);
  const __m256d t2 = _mm256_mul_pd(_mm256_mul_pd(set1(-0.356563782), k), k);
  const __m256d t3 = _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(set1(1.781477937), k), k), k);
  const __m256d t4 = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(set1(-1.821255978), k), k), k), k);
  const __m256d t5 = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(set1(1.330274429), k), k), k), k),
      k);
  const __m256d poly =
      _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(_mm256_add_pd(t1, t2), t3), t4), t5);
  const __m256d ex = lanes_libm<libm_exp>(_mm256_mul_pd(_mm256_mul_pd(set1(-0.5), d), d));
  const double inv_sqrt_2pi = 1.0 / std::sqrt(2.0 * M_PI);
  const __m256d c = _mm256_sub_pd(one, _mm256_mul_pd(_mm256_mul_pd(set1(inv_sqrt_2pi), ex), poly));
  return select_lt_zero(d, _mm256_sub_pd(one, c), c);
}

/// Four packed call options per iteration; the scalar remainder defers to
/// `Blackscholes::call_price` itself so the tail is trivially exact.
void blackscholes_batch(const double* spot, const double* strike, const double* rate,
                        const double* volatility, const double* expiry, double* out, int n) {
  int j = 0;
  for (; j + kW <= n; j += kW) {
    const __m256d s = _mm256_loadu_pd(spot + j);
    const __m256d x = _mm256_loadu_pd(strike + j);
    const __m256d r = _mm256_loadu_pd(rate + j);
    const __m256d v = _mm256_loadu_pd(volatility + j);
    const __m256d t = _mm256_loadu_pd(expiry + j);
    const __m256d sqrt_t = _mm256_sqrt_pd(t);
    const __m256d log_sx = lanes_libm<libm_log>(_mm256_div_pd(s, x));
    // d1 numerator: log(s/x) + (r + 0.5*v*v) * t, exactly as associated
    // in call_price; denominator v*sqrt_t is reused for d2 (the scalar
    // recomputes it — same operands, same op, same bits).
    const __m256d v_sqrt_t = _mm256_mul_pd(v, sqrt_t);
    const __m256d d1 = _mm256_div_pd(
        _mm256_add_pd(log_sx,
                      _mm256_mul_pd(_mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(set1(0.5), v), v)),
                                    t)),
        v_sqrt_t);
    const __m256d d2 = _mm256_sub_pd(d1, v_sqrt_t);
    const __m256d disc = lanes_libm<libm_exp>(neg_v(_mm256_mul_pd(r, t)));
    const __m256d price = _mm256_sub_pd(_mm256_mul_pd(s, cnd_v(d1)),
                                        _mm256_mul_pd(_mm256_mul_pd(x, disc), cnd_v(d2)));
    _mm256_storeu_pd(out + j, price);
  }
  for (; j < n; ++j) {
    out[j] = Blackscholes::call_price(spot[j], strike[j], rate[j], volatility[j], expiry[j]);
  }
}

/// Backward induction with lanes = tree nodes of one level. The update
/// `values[i] = discount * (p_up*values[i+1] + p_down*values[i])` is
/// elementwise over i (no reduction), and both source vectors are loaded
/// before the store, so vectorizing across i is bit-identical by
/// construction. Highest index read is i + kW <= level + 1 <= steps,
/// within the `steps + 1` array.
void binomial_induct(double* values, int steps, double discount, double p_up, double p_down) {
  const __m256d disc = set1(discount);
  const __m256d pu = set1(p_up);
  const __m256d pd = set1(p_down);
  for (int level = steps - 1; level >= 0; --level) {
    int i = 0;
    for (; i + kW <= level + 1; i += kW) {
      const __m256d cur = _mm256_loadu_pd(values + i);
      const __m256d next = _mm256_loadu_pd(values + i + 1);
      _mm256_storeu_pd(values + i, _mm256_mul_pd(disc, _mm256_add_pd(_mm256_mul_pd(pu, next),
                                                                       _mm256_mul_pd(pd, cur))));
    }
    for (; i <= level; ++i) {
      values[i] = discount * (p_up * values[i + 1] + p_down * values[i]);
    }
  }
}

/// Nearest centroid of up to four observations, lanes = observations.
/// Lanes past `count` repeat point 0 and their labels are dropped. Each
/// lane's distance to cluster c starts at 0.0 and accumulates
/// `diff * diff` in ascending j, exactly as the scalar loop does, and
/// clusters are folded in ascending order with a strict `<` from +inf —
/// same distances, same ties, same winner. `kDims > 0` keeps the points'
/// columns in registers; `kDims == 0` rebuilds a column per (cluster, j).
template <int kDims>
void assign_points(const double* const* points, int count, const double* centroids, int dims,
                   int clusters, int* labels) {
  if constexpr (kDims > 0) dims = kDims;
  const double* p[kW];
  for (int lane = 0; lane < kW; ++lane) p[lane] = points[lane < count ? lane : 0];
  const auto column = [&](int j) { return _mm256_set_pd(p[3][j], p[2][j], p[1][j], p[0][j]); };
  __m256d columns[kDims > 0 ? kDims : 1];
  if constexpr (kDims > 0) {
    for (int j = 0; j < kDims; ++j) columns[j] = column(j);
  }
  __m256d best_dist = set1(std::numeric_limits<double>::infinity());
  __m256d best = _mm256_setzero_pd();
  for (int c = 0; c < clusters; ++c) {
    const double* centroid = centroids + static_cast<std::size_t>(c) * static_cast<std::size_t>(dims);
    __m256d dist = _mm256_setzero_pd();
    for (int j = 0; j < dims; ++j) {
      const __m256d point = kDims > 0 ? columns[j] : column(j);
      const __m256d diff = _mm256_sub_pd(point, _mm256_broadcast_sd(centroid + j));
      dist = _mm256_add_pd(dist, _mm256_mul_pd(diff, diff));
    }
    const __m256d nearer = _mm256_cmp_pd(dist, best_dist, _CMP_LT_OQ);
    best_dist = _mm256_blendv_pd(best_dist, dist, nearer);
    best = _mm256_blendv_pd(best, set1(static_cast<double>(c)), nearer);
  }
  double lane_best[kW];
  _mm256_storeu_pd(lane_best, best);
  for (int lane = 0; lane < count; ++lane) labels[lane] = static_cast<int>(lane_best[lane]);
}

void kmeans_assign(const double* const* points, int count, const double* centroids, int dims,
                   int clusters, int* labels) {
  switch (dims) {
    case 1:
      return assign_points<1>(points, count, centroids, dims, clusters, labels);
    case 2:
      return assign_points<2>(points, count, centroids, dims, clusters, labels);
    case 3:
      return assign_points<3>(points, count, centroids, dims, clusters, labels);
    case 4:
      return assign_points<4>(points, count, centroids, dims, clusters, labels);
    case 5:
      return assign_points<5>(points, count, centroids, dims, clusters, labels);
    case 6:
      return assign_points<6>(points, count, centroids, dims, clusters, labels);
    case 7:
      return assign_points<7>(points, count, centroids, dims, clusters, labels);
    case 8:
      return assign_points<8>(points, count, centroids, dims, clusters, labels);
    default:
      return assign_points<0>(points, count, centroids, dims, clusters, labels);
  }
}

/// Centroid sums with lanes = dims: points are added to their cluster's
/// row in point order, element-wise, so every sum sees the scalar loop's
/// additions in the scalar loop's order. Points with a negative label are
/// skipped, as in the scalar loop. `kDims > 0` carries the current
/// cluster's row in registers across a run of same-cluster points and
/// stores it back when the label changes (kmeans' data arrives in long
/// same-cluster runs); `kDims == 0` updates the row in memory per point.
template <int kDims>
void accumulate_points(const double* points, const int* membership, std::uint64_t n, int dims,
                       double* sums, std::uint64_t* counts) {
  if constexpr (kDims > 0) {
    constexpr int kVectors = kDims / kW;
    constexpr int kTail = kDims % kW;
    __m256d row_v[kVectors > 0 ? kVectors : 1];
    double row_tail[kTail > 0 ? kTail : 1];
    std::uint64_t i = 0;
    while (i < n) {
      const int c = membership[i];
      if (c < 0) {
        ++i;
        continue;
      }
      double* row = sums + static_cast<std::size_t>(c) * kDims;
      for (int v = 0; v < kVectors; ++v) row_v[v] = _mm256_loadu_pd(row + v * kW);
      for (int t = 0; t < kTail; ++t) row_tail[t] = row[kVectors * kW + t];
      // The run of points labelled c; unlabelled points inside it are
      // skipped, the next other label ends it.
      for (; i < n; ++i) {
        const int label = membership[i];
        if (label < 0) continue;
        if (label != c) break;
        ++counts[c];
        const double* point = points + i * kDims;
        for (int v = 0; v < kVectors; ++v) {
          row_v[v] = _mm256_add_pd(row_v[v], _mm256_loadu_pd(point + v * kW));
        }
        for (int t = 0; t < kTail; ++t) row_tail[t] += point[kVectors * kW + t];
      }
      for (int v = 0; v < kVectors; ++v) _mm256_storeu_pd(row + v * kW, row_v[v]);
      for (int t = 0; t < kTail; ++t) row[kVectors * kW + t] = row_tail[t];
    }
  } else {
    const auto d = static_cast<std::size_t>(dims);
    for (std::uint64_t i = 0; i < n; ++i) {
      const int c = membership[i];
      if (c < 0) continue;
      ++counts[c];
      double* row = sums + static_cast<std::size_t>(c) * d;
      const double* point = points + i * d;
      int j = 0;
      for (; j + kW <= dims; j += kW) {
        _mm256_storeu_pd(row + j,
                         _mm256_add_pd(_mm256_loadu_pd(row + j), _mm256_loadu_pd(point + j)));
      }
      for (; j < dims; ++j) row[j] += point[j];
    }
  }
}

void kmeans_accumulate(const double* points, const int* membership, std::uint64_t n, int dims,
                       double* sums, std::uint64_t* counts) {
  switch (dims) {
    case 1:
      return accumulate_points<1>(points, membership, n, dims, sums, counts);
    case 2:
      return accumulate_points<2>(points, membership, n, dims, sums, counts);
    case 3:
      return accumulate_points<3>(points, membership, n, dims, sums, counts);
    case 4:
      return accumulate_points<4>(points, membership, n, dims, sums, counts);
    case 5:
      return accumulate_points<5>(points, membership, n, dims, sums, counts);
    case 6:
      return accumulate_points<6>(points, membership, n, dims, sums, counts);
    case 7:
      return accumulate_points<7>(points, membership, n, dims, sums, counts);
    case 8:
      return accumulate_points<8>(points, membership, n, dims, sums, counts);
    default:
      return accumulate_points<0>(points, membership, n, dims, sums, counts);
  }
}

}  // namespace

BlackscholesBatchFn blackscholes_batch_avx2() { return &blackscholes_batch; }
BinomialInductFn binomial_induct_avx2() { return &binomial_induct; }
KMeansAssignFn kmeans_assign_avx2() { return &kmeans_assign; }
KMeansAccumulateFn kmeans_accumulate_avx2() { return &kmeans_accumulate; }

}  // namespace hpac::apps::kernels

#else

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_avx2() { return nullptr; }
BinomialInductFn binomial_induct_avx2() { return nullptr; }
KMeansAssignFn kmeans_assign_avx2() { return nullptr; }
KMeansAccumulateFn kmeans_accumulate_avx2() { return nullptr; }

}  // namespace hpac::apps::kernels

#endif
