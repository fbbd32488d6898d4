// SSE2 application kernels (128-bit lanes). Part of the x86-64
// baseline, so no special flags; non-x86 hosts get stubs and the apps
// stay scalar.

#include "apps/simd_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "apps/app_kernels_impl.hpp"

namespace hpac::apps::kernels {

namespace {

struct Sse2Ops {
  static constexpr int kWidth = 2;
  using V = __m128d;
  static V broadcast(double x) { return _mm_set1_pd(x); }
  static V loadu(const double* p) { return _mm_loadu_pd(p); }
  static void storeu(double* p, V a) { _mm_storeu_pd(p, a); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V sub(V a, V b) { return _mm_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V div(V a, V b) { return _mm_div_pd(a, b); }
  static V sqrt(V a) { return _mm_sqrt_pd(a); }
  static V abs(V a) { return _mm_andnot_pd(_mm_set1_pd(-0.0), a); }
  static V neg(V a) { return _mm_xor_pd(a, _mm_set1_pd(-0.0)); }
  static V select_lt_zero(V x, V if_lt, V if_ge) {
    // SSE2 has no blendv; exact bitwise select via the full-width mask.
    const V m = _mm_cmplt_pd(x, _mm_setzero_pd());
    return _mm_or_pd(_mm_and_pd(m, if_lt), _mm_andnot_pd(m, if_ge));
  }
};

}  // namespace

BlackscholesBatchFn blackscholes_batch_sse2() { return &blackscholes_batch_impl<Sse2Ops>; }
BinomialInductFn binomial_induct_sse2() { return &binomial_induct_impl<Sse2Ops>; }
KMeansAssignFn kmeans_assign_sse2() { return &kmeans_assign_impl<Sse2Ops>; }
KMeansAccumulateFn kmeans_accumulate_sse2() { return &kmeans_accumulate_impl<Sse2Ops>; }

}  // namespace hpac::apps::kernels

#else

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_sse2() { return nullptr; }
BinomialInductFn binomial_induct_sse2() { return nullptr; }
KMeansAssignFn kmeans_assign_sse2() { return nullptr; }
KMeansAccumulateFn kmeans_accumulate_sse2() { return nullptr; }

}  // namespace hpac::apps::kernels

#endif
