#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hpac::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    HPAC_REQUIRE(x > 0.0, "geomean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double p) {
  HPAC_REQUIRE(!xs.empty(), "percentile of empty range");
  HPAC_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

BoxStats box_stats(std::span<const double> xs) {
  BoxStats b;
  if (xs.empty()) return b;
  b.min = percentile(xs, 0);
  b.q1 = percentile(xs, 25);
  b.median = percentile(xs, 50);
  b.q3 = percentile(xs, 75);
  b.max = percentile(xs, 100);
  return b;
}

Regression linear_regression(std::span<const double> x, std::span<const double> y) {
  HPAC_REQUIRE(x.size() == y.size(), "regression inputs differ in length");
  HPAC_REQUIRE(x.size() >= 2, "regression needs at least two points");
  const double mx = mean(x);
  const double my = mean(y);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  Regression r;
  if (sxx == 0.0) {
    r.slope = 0.0;
    r.intercept = my;
    r.r2 = 0.0;
    return r;
  }
  r.slope = sxy / sxx;
  r.intercept = my - r.slope * mx;
  r.r2 = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return r;
}

double mape_percent(std::span<const double> accurate, std::span<const double> approx) {
  HPAC_REQUIRE(accurate.size() == approx.size(), "MAPE inputs differ in length");
  if (accurate.empty()) return 0.0;
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < accurate.size(); ++i) {
    if (accurate[i] == 0.0) continue;  // percentage error undefined at 0
    sum += std::abs(accurate[i] - approx[i]) / std::abs(accurate[i]);
    ++counted;
  }
  if (counted == 0) return 0.0;
  return 100.0 * sum / static_cast<double>(counted);
}

double mcr_percent(std::span<const int> accurate, std::span<const int> approx) {
  HPAC_REQUIRE(accurate.size() == approx.size(), "MCR inputs differ in length");
  if (accurate.empty()) return 0.0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < accurate.size(); ++i) {
    if (accurate[i] != approx[i]) ++mismatches;
  }
  return 100.0 * static_cast<double>(mismatches) / static_cast<double>(accurate.size());
}

}  // namespace hpac::stats
