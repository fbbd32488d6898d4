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

/// AVX2 kernel lookup (iact_scan_avx2.cpp, written on `__m256d` and the
/// only TU built with -mavx2): a specialized kernel for small `in_dims`
/// (compile-time unrolled dimension loop), a generic kernel otherwise.
/// Returns nullptr when AVX2 is not compiled into this binary.
ScanFn iact_scan_fn_avx2(int in_dims);

/// The AVX2 kernel for an `in_dims`-wide table when `simd::active_level()`
/// is kAvx2, else nullptr → use the scalar path. Defined in the
/// baseline-ISA iact.cpp, so the check itself runs on any x86-64 host.
ScanFn select_iact_scan(int in_dims);

}  // namespace hpac::approx::detail
