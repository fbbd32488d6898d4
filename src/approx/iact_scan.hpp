#pragma once

#include <limits>

namespace hpac::approx::detail {

struct ScanResult {
  int index = -1;
  double distance = std::numeric_limits<double>::infinity();
};

/// Inputs of one batched scan: up to four probes against the same table.
///
/// Lanes are probes; rows are visited in ascending order and read from the
/// row-major entries (`rows + row * row_stride`). Each (probe, row)
/// squared distance accumulates in ascending-dimension order, and each
/// lane folds its rows with the scalar scan's exact `sq < best_sq`, then
/// `sqrt(sq) < best.distance` rule, so every lane's result is bit-identical
/// to `find_nearest` on that probe alone.
struct BatchScanArgs {
  const double* probes[4] = {nullptr, nullptr, nullptr, nullptr};
  int count = 0;  ///< probes in use, 1..4
  const double* rows = nullptr;
  int row_stride = 0;
  int valid_count = 0;
  int in_dims = 0;
};

using BatchScanFn = void (*)(const BatchScanArgs&, ScanResult* results);

/// The batched AVX2 kernel for `in_dims`-wide tables (iact_scan_avx2.cpp,
/// written on `__m256d` and the only TU built with -mavx2): a specialized
/// kernel for small `in_dims` (compile-time unrolled dimension loop), a
/// generic kernel otherwise. Returns nullptr when AVX2 is not compiled
/// into this binary.
BatchScanFn iact_batch_scan_fn_avx2(int in_dims);

/// The AVX2 kernel for an `in_dims`-wide table when `simd::active_level()`
/// is kAvx2, else nullptr → one `find_nearest` per probe. Defined in the
/// baseline-ISA iact.cpp, so the check itself runs on any x86-64 host.
BatchScanFn select_iact_batch_scan(int in_dims);

}  // namespace hpac::approx::detail
