// AVX2 application kernels (256-bit lanes). Compiled with -mavx2 only
// when CMake's ISA probe passes (HPAC_SIMD_COMPILED_AVX2); reached
// through the dispatchers in simd_kernels.cpp behind the runtime cpuid
// gate. Deliberately no -mfma: lanes must round exactly like the scalar
// build's separate mul and add.

#include "apps/simd_kernels.hpp"

#if defined(HPAC_SIMD_COMPILED_AVX2) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include "apps/app_kernels_impl.hpp"

namespace hpac::apps::kernels {

namespace {

struct Avx2Ops {
  static constexpr int kWidth = 4;
  using V = __m256d;
  static V broadcast(double x) { return _mm256_set1_pd(x); }
  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, V a) { _mm256_storeu_pd(p, a); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_pd(a); }
  static V abs(V a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static V neg(V a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static V select_lt_zero(V x, V if_lt, V if_ge) {
    const V m = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
    return _mm256_blendv_pd(if_ge, if_lt, m);
  }
};

}  // namespace

BlackscholesBatchFn blackscholes_batch_avx2() { return &blackscholes_batch_impl<Avx2Ops>; }
BinomialInductFn binomial_induct_avx2() { return &binomial_induct_impl<Avx2Ops>; }
KMeansAssignFn kmeans_assign_avx2() { return &kmeans_assign_impl<Avx2Ops>; }
KMeansAccumulateFn kmeans_accumulate_avx2() { return &kmeans_accumulate_impl<Avx2Ops>; }

}  // namespace hpac::apps::kernels

#else

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_avx2() { return nullptr; }
BinomialInductFn binomial_induct_avx2() { return nullptr; }
KMeansAssignFn kmeans_assign_avx2() { return nullptr; }
KMeansAccumulateFn kmeans_accumulate_avx2() { return nullptr; }

}  // namespace hpac::apps::kernels

#endif
