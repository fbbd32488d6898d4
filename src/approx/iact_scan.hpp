#pragma once

#include <limits>

namespace hpac::approx::detail {

/// Inputs of one vectorized nearest-entry scan over an iACT table.
///
/// The kernels read the table through its dimension-major mirror
/// (`soa[d * capacity + row]`, maintained by `IactTable::insert`), which
/// turns "the same dimension of W consecutive rows" into one contiguous
/// vector load. Lanes map to rows; each lane accumulates its squared
/// distance in ascending-dimension order — exactly the scalar scan's
/// operation sequence — so the winning index *and* every distance bit
/// match the scalar reference by construction (see the `simd` tests).
struct ScanArgs {
  const double* soa = nullptr;
  const double* probe = nullptr;
  int capacity = 0;
  int valid_count = 0;
  int in_dims = 0;
};

struct ScanResult {
  int index = -1;
  double distance = std::numeric_limits<double>::infinity();
};

using ScanFn = ScanResult (*)(const ScanArgs&);

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

/// AVX2 kernel lookup (iact_scan_avx2.cpp, written on `__m256d` and the
/// only TU built with -mavx2): a specialized kernel for small `in_dims`
/// (compile-time unrolled dimension loop), a generic kernel otherwise.
/// Returns nullptr when AVX2 is not compiled into this binary.
ScanFn iact_scan_fn_avx2(int in_dims);
/// The batched AVX2 kernel for `in_dims`-wide tables, or nullptr when AVX2
/// is not compiled into this binary.
BatchScanFn iact_batch_scan_fn_avx2(int in_dims);

/// The AVX2 kernel for an `in_dims`-wide table when `simd::active_level()`
/// is kAvx2, else nullptr → use the scalar path. Defined in the
/// baseline-ISA iact.cpp, so the check itself runs on any x86-64 host.
ScanFn select_iact_scan(int in_dims);
/// The batched counterpart, chosen the same way; nullptr → one
/// `find_nearest` per probe.
BatchScanFn select_iact_batch_scan(int in_dims);

}  // namespace hpac::approx::detail
