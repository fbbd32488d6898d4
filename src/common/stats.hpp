#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hpac::stats {

/// Arithmetic mean; returns 0 for an empty range.
double mean(std::span<const double> xs);

/// Geometric mean of strictly positive values; returns 0 for empty input.
/// Used for the paper's "geomean speedup 1.42x" style summaries.
double geomean(std::span<const double> xs);

/// Linear interpolation percentile, p in [0, 100]. Sorts a copy.
double percentile(std::span<const double> xs, double p);

/// Five-number summary for boxplots (Figure 11c style output).
struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};
BoxStats box_stats(std::span<const double> xs);

/// Ordinary least squares y = a + b*x with the coefficient of
/// determination R^2 (Figure 12c reports R^2 = 0.95).
struct Regression {
  double intercept = 0;
  double slope = 0;
  double r2 = 0;
};
Regression linear_regression(std::span<const double> x, std::span<const double> y);

/// Mean absolute percentage error between an accurate and an approximate
/// output vector (paper Eq. 1), in percent. Elements whose accurate value
/// is zero are skipped, matching the metric's domain.
double mape_percent(std::span<const double> accurate, std::span<const double> approx);

/// Misclassification rate (paper Eq. 2), in percent.
double mcr_percent(std::span<const int> accurate, std::span<const int> approx);

}  // namespace hpac::stats
