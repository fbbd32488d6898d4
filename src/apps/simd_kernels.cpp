#include "apps/simd_kernels.hpp"

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_fn() {
  return simd::active_level() == simd::Level::kAvx2 ? blackscholes_batch_avx2() : nullptr;
}

BinomialInductFn binomial_induct_fn() {
  return simd::active_level() == simd::Level::kAvx2 ? binomial_induct_avx2() : nullptr;
}

KMeansAssignFn kmeans_assign_fn() {
  return simd::active_level() == simd::Level::kAvx2 ? kmeans_assign_avx2() : nullptr;
}

KMeansAccumulateFn kmeans_accumulate_fn() {
  return simd::active_level() == simd::Level::kAvx2 ? kmeans_accumulate_avx2() : nullptr;
}

}  // namespace hpac::apps::kernels
