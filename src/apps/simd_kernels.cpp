#include "apps/simd_kernels.hpp"

namespace hpac::apps::kernels {

namespace {

// Widest-first with fall-through, mirroring select_iact_scan: a level
// whose TU was not compiled (or a non-x86 host) degrades to the next
// narrower ISA; kOff always yields nullptr and the apps' scalar path.
template <typename Fn>
Fn widest_available(Fn (*avx2)(), Fn (*sse2)()) {
  const simd::Level level = simd::active_level();
  if (level >= simd::Level::kAvx2) {
    if (Fn fn = avx2()) return fn;
  }
  if (level >= simd::Level::kSse2) {
    if (Fn fn = sse2()) return fn;
  }
  return nullptr;
}

}  // namespace

BlackscholesBatchFn blackscholes_batch_fn() {
  return widest_available(blackscholes_batch_avx2, blackscholes_batch_sse2);
}

BinomialInductFn binomial_induct_fn() {
  return widest_available(binomial_induct_avx2, binomial_induct_sse2);
}

KMeansAssignFn kmeans_assign_fn() {
  return widest_available(kmeans_assign_avx2, kmeans_assign_sse2);
}

KMeansAccumulateFn kmeans_accumulate_fn() {
  return widest_available(kmeans_accumulate_avx2, kmeans_accumulate_sse2);
}

}  // namespace hpac::apps::kernels
