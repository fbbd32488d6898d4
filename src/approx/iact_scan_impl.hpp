#pragma once

// Shared body of the vectorized iACT table scans, included ONLY by the
// vector translation unit (iact_scan_avx2.cpp), which instantiates it
// with its vector-ops traits. Kept out of iact_scan.hpp so the template
// never leaks into TUs compiled without the matching ISA flags.
//
// Bit-identity contract (what makes HPAC_SIMD a pure perf knob):
//  * lanes are table ROWS — each row's squared distance accumulates
//    `sq += diff * diff` in ascending-dimension order, the scalar scan's
//    exact sequence, with explicit mul/add vector ops (never FMA, which
//    would round differently from the scalar build's mul+add);
//  * block results are folded in ascending row order through the same
//    strict `sq < best_sq` / `sqrt(sq) < best_distance` comparisons the
//    scalar scan performs, preserving the first-strictly-nearer-in-the-
//    sqrt-domain tie-break;
//  * the early-abandon check (whole block's partial sums already above
//    the best squared distance) only skips rows that could never win —
//    partial squared sums are monotone — so it changes work, not results.

#include <cmath>

#include "approx/iact_scan.hpp"

namespace hpac::approx::detail {

/// `kDims > 0`: compile-time dimension count (loop fully unrolled).
/// `kDims == 0`: generic runtime-dimension kernel.
template <typename Ops, int kDims>
ScanResult scan_impl(const ScanArgs& args) {
  constexpr int kW = Ops::kWidth;
  const int dims = kDims > 0 ? kDims : args.in_dims;
  const int cap = args.capacity;
  const double* soa = args.soa;
  const double* probe = args.probe;

  ScanResult best;
  double best_sq = std::numeric_limits<double>::infinity();

  int row = 0;
  for (; row + kW <= args.valid_count; row += kW) {
    const typename Ops::V best_sq_v = Ops::broadcast(best_sq);
    typename Ops::V sq_v = Ops::zero();
    bool abandoned = false;
    for (int d = 0; d < dims; ++d) {
      const typename Ops::V diff =
          Ops::sub(Ops::broadcast(probe[d]), Ops::loadu(soa + d * cap + row));
      sq_v = Ops::add(sq_v, Ops::mul(diff, diff));
      if (Ops::all_gt(sq_v, best_sq_v)) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) continue;
    double lane_sq[kW];
    Ops::store(lane_sq, sq_v);
    for (int lane = 0; lane < kW; ++lane) {
      const double sq = lane_sq[lane];
      if (sq < best_sq) {
        best_sq = sq;
        const double distance = std::sqrt(sq);
        if (distance < best.distance) {
          best.distance = distance;
          best.index = row + lane;
        }
      }
    }
  }

  // Remainder rows: the scalar scan verbatim, reading through the mirror
  // (same values bit-for-bit as the row-major storage).
  for (; row < args.valid_count; ++row) {
    double sq = 0.0;
    for (int d = 0; d < dims; ++d) {
      const double diff = probe[d] - soa[d * cap + row];
      sq += diff * diff;
      if (sq > best_sq) break;
    }
    if (sq < best_sq) {
      best_sq = sq;
      const double distance = std::sqrt(sq);
      if (distance < best.distance) {
        best.distance = distance;
        best.index = row;
      }
    }
  }
  return best;
}

template <typename Ops>
ScanFn select_scan_impl(int in_dims) {
  switch (in_dims) {
    case 1:
      return &scan_impl<Ops, 1>;
    case 2:
      return &scan_impl<Ops, 2>;
    case 3:
      return &scan_impl<Ops, 3>;
    case 4:
      return &scan_impl<Ops, 4>;
    case 5:
      return &scan_impl<Ops, 5>;
    case 6:
      return &scan_impl<Ops, 6>;
    case 7:
      return &scan_impl<Ops, 7>;
    case 8:
      return &scan_impl<Ops, 8>;
    default:
      return &scan_impl<Ops, 0>;
  }
}

}  // namespace hpac::approx::detail
