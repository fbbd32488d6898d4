#pragma once

// Shared templated bodies of the vectorized application kernels. Included
// ONLY by the vector translation unit (app_kernels_avx2.cpp), which
// supplies an `Ops` traits type over its native vector register;
// everything here is written against that abstract interface so the math
// stays in one place, kept bit-identical with the scalar reference.
//
// Bit-identity contract (the whole point): each lane executes the exact
// operation sequence of `Blackscholes::call_price` / the binomial
// backward-induction statement / the kmeans distance and centroid-sum
// loops — same association, explicit mul/add
// (never FMA; these TUs are compiled without -mfma and intrinsics are
// never contracted), and scalar libm calls (`std::log`, `std::exp`)
// extracted per lane, since no vector math library is allowed to change
// rounding. IEEE-exact operations (sub/mul/add/div/sqrt/abs/select)
// produce the same bits lane-wise as scalar, so prices — and therefore
// QoI vectors, error metrics and sweep CSV bytes — are invariant across
// dispatch levels.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "apps/blackscholes.hpp"

namespace hpac::apps::kernels {

/// `Ops` traits contract:
///   using V = <native vector of doubles>;
///   static constexpr int kWidth;
///   static V broadcast(double), loadu(const double*), storeu(double*, V);
///   static V add/sub/mul/div(V, V);  static V sqrt(V);
///   static V abs(V);                 // clear sign bit
///   static V neg(V);                 // flip sign bit (exact negation)
///   static V select_lt_zero(V x, V if_lt, V if_ge);  // lane: x<0 ? a : b

/// Apply scalar libm `fn` to every lane. The round-trip through memory
/// is bit-exact; the per-lane calls are the same calls the scalar path
/// makes, so there is no vector-math rounding divergence to reason
/// about.
template <typename Ops, double Fn(double)>
inline typename Ops::V lanes_libm(typename Ops::V x) {
  double tmp[Ops::kWidth];
  Ops::storeu(tmp, x);
  for (int l = 0; l < Ops::kWidth; ++l) tmp[l] = Fn(tmp[l]);
  return Ops::loadu(tmp);
}

inline double libm_log(double x) { return std::log(x); }
inline double libm_exp(double x) { return std::exp(x); }

/// Vector CND replicating blackscholes.cpp's `cnd` term by term:
/// polynomial terms left-associated (`a3*k*k*k` = `((a3*k)*k)*k`), the
/// term sum left-associated, and `1/sqrt(2*pi)` the same compile-time
/// constant the scalar TU folds.
template <typename Ops>
inline typename Ops::V cnd_v(typename Ops::V d) {
  using V = typename Ops::V;
  const V one = Ops::broadcast(1.0);
  const V k = Ops::div(one, Ops::add(one, Ops::mul(Ops::broadcast(0.2316419), Ops::abs(d))));
  const V t1 = Ops::mul(Ops::broadcast(0.31938153), k);
  const V t2 = Ops::mul(Ops::mul(Ops::broadcast(-0.356563782), k), k);
  const V t3 = Ops::mul(Ops::mul(Ops::mul(Ops::broadcast(1.781477937), k), k), k);
  const V t4 = Ops::mul(Ops::mul(Ops::mul(Ops::mul(Ops::broadcast(-1.821255978), k), k), k), k);
  const V t5 =
      Ops::mul(Ops::mul(Ops::mul(Ops::mul(Ops::mul(Ops::broadcast(1.330274429), k), k), k), k), k);
  const V poly = Ops::add(Ops::add(Ops::add(Ops::add(t1, t2), t3), t4), t5);
  const V ex = lanes_libm<Ops, libm_exp>(Ops::mul(Ops::mul(Ops::broadcast(-0.5), d), d));
  const double inv_sqrt_2pi = 1.0 / std::sqrt(2.0 * M_PI);
  const V c = Ops::sub(one, Ops::mul(Ops::mul(Ops::broadcast(inv_sqrt_2pi), ex), poly));
  return Ops::select_lt_zero(d, Ops::sub(one, c), c);
}

/// W packed call options per iteration; scalar remainder defers to
/// `Blackscholes::call_price` itself so the tail is trivially exact.
template <typename Ops>
void blackscholes_batch_impl(const double* spot, const double* strike, const double* rate,
                             const double* volatility, const double* expiry, double* out, int n) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  int j = 0;
  for (; j + kW <= n; j += kW) {
    const V s = Ops::loadu(spot + j);
    const V x = Ops::loadu(strike + j);
    const V r = Ops::loadu(rate + j);
    const V v = Ops::loadu(volatility + j);
    const V t = Ops::loadu(expiry + j);
    const V sqrt_t = Ops::sqrt(t);
    const V log_sx = lanes_libm<Ops, libm_log>(Ops::div(s, x));
    // d1 numerator: log(s/x) + (r + 0.5*v*v) * t, exactly as associated
    // in call_price; denominator v*sqrt_t is reused for d2 (the scalar
    // recomputes it — same operands, same op, same bits).
    const V v_sqrt_t = Ops::mul(v, sqrt_t);
    const V d1 = Ops::div(
        Ops::add(log_sx, Ops::mul(Ops::add(r, Ops::mul(Ops::mul(Ops::broadcast(0.5), v), v)), t)),
        v_sqrt_t);
    const V d2 = Ops::sub(d1, v_sqrt_t);
    const V disc = lanes_libm<Ops, libm_exp>(Ops::neg(Ops::mul(r, t)));
    const V price = Ops::sub(Ops::mul(s, cnd_v<Ops>(d1)), Ops::mul(Ops::mul(x, disc), cnd_v<Ops>(d2)));
    Ops::storeu(out + j, price);
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
template <typename Ops>
void binomial_induct_impl(double* values, int steps, double discount, double p_up, double p_down) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  const V disc = Ops::broadcast(discount);
  const V pu = Ops::broadcast(p_up);
  const V pd = Ops::broadcast(p_down);
  for (int level = steps - 1; level >= 0; --level) {
    int i = 0;
    for (; i + kW <= level + 1; i += kW) {
      const V cur = Ops::loadu(values + i);
      const V next = Ops::loadu(values + i + 1);
      Ops::storeu(values + i, Ops::mul(disc, Ops::add(Ops::mul(pu, next), Ops::mul(pd, cur))));
    }
    for (; i <= level; ++i) {
      values[i] = discount * (p_up * values[i + 1] + p_down * values[i]);
    }
  }
}

/// Nearest centroid with lanes = clusters. `centroids_t` is the dims x
/// clusters transpose, so one load fetches coordinate j of W consecutive
/// clusters. Each lane's distance starts at 0.0 and accumulates
/// `diff * diff` in ascending j, exactly as the scalar loop does for its
/// cluster, and the argmin visits clusters in ascending order with strict
/// `<` from +inf — same distances, same ties, same winner. The cluster
/// remainder is scalar.
template <typename Ops>
int kmeans_assign_impl(const double* point, const double* centroids_t, int dims, int clusters) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  double dist[kW];
  const auto scan = [&](int first, int count) {
    for (int l = 0; l < count; ++l) {
      if (dist[l] < best_dist) {
        best_dist = dist[l];
        best = first + l;
      }
    }
  };
  const auto column = [&](int j, int c) {
    return centroids_t + static_cast<std::size_t>(j) * static_cast<std::size_t>(clusters) + c;
  };
  int c = 0;
  for (; c + kW <= clusters; c += kW) {
    V acc = Ops::broadcast(0.0);
    for (int j = 0; j < dims; ++j) {
      const V diff = Ops::sub(Ops::broadcast(point[j]), Ops::loadu(column(j, c)));
      acc = Ops::add(acc, Ops::mul(diff, diff));
    }
    Ops::storeu(dist, acc);
    scan(c, kW);
  }
  for (; c < clusters; ++c) {
    dist[0] = 0.0;
    for (int j = 0; j < dims; ++j) {
      const double diff = point[j] - *column(j, c);
      dist[0] += diff * diff;
    }
    scan(c, 1);
  }
  return best;
}

/// Centroid sums with lanes = dims: points are added to their cluster's
/// row in point order, element-wise, so every sum sees the scalar loop's
/// additions in the scalar loop's order. Points with a negative label are
/// skipped, as in the scalar loop.
template <typename Ops>
void kmeans_accumulate_impl(const double* points, const int* membership, std::uint64_t n,
                            int dims, double* sums, std::uint64_t* counts) {
  constexpr int kW = Ops::kWidth;
  const auto d = static_cast<std::size_t>(dims);
  for (std::uint64_t i = 0; i < n; ++i) {
    const int c = membership[i];
    if (c < 0) continue;
    ++counts[c];
    double* row = sums + static_cast<std::size_t>(c) * d;
    const double* point = points + i * d;
    int j = 0;
    for (; j + kW <= dims; j += kW) {
      Ops::storeu(row + j, Ops::add(Ops::loadu(row + j), Ops::loadu(point + j)));
    }
    for (; j < dims; ++j) row[j] += point[j];
  }
}

}  // namespace hpac::apps::kernels
