#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/record.hpp"

namespace hpac::harness {

/// Best (highest-speedup) feasible record with error below `max_error`,
/// the selection rule of Figure 6 ("highest speedup where error is less
/// than 10%"). A NaN error never qualifies. Empty when no configuration
/// qualifies.
std::optional<RunRecord> best_under_error(const std::vector<RunRecord>& records,
                                          double max_error_percent);

/// Error-distribution summary used by Figure 6's top panels: the error
/// values of all feasible records below `max_error_percent`.
std::vector<double> errors_under(const std::vector<RunRecord>& records,
                                 double max_error_percent);

/// Speedups grouped by a key extractor, for paired comparisons such as
/// Figure 11c (thread vs warp hierarchy per RSD threshold).
struct GroupStats {
  std::string key;
  stats::BoxStats box;
  std::size_t count = 0;
};
std::vector<GroupStats> group_box_stats(
    const std::vector<RunRecord>& records,
    const std::function<std::string(const RunRecord&)>& key_of);

/// Convergence-speedup analysis of Figure 12c: regress time speedup
/// against convergence speedup (baseline iterations / approx iterations)
/// and report R^2.
struct ConvergenceCorrelation {
  stats::Regression regression;
  std::vector<double> convergence_speedup;
  std::vector<double> time_speedup;
};
ConvergenceCorrelation convergence_correlation(const std::vector<RunRecord>& records);

/// Geometric-mean speedup of the per-(benchmark, technique) best records —
/// the paper's "geomean speedup 1.42x" headline aggregation.
double geomean_best_speedup(const std::vector<RunRecord>& records, double max_error_percent);

/// One device's row of the portability comparison (the paper evaluates the
/// same directives on NVIDIA and AMD and contrasts the achievable gains).
struct DeviceBest {
  std::string device;
  double geomean_best = 0;      ///< geomean_best_speedup over this device's records
  std::size_t feasible = 0;     ///< feasible records on this device
  std::size_t total = 0;        ///< all records on this device
};

/// Per-device geomean-best table over a multi-device (campaign) database,
/// sorted by device name. Devices where no record qualifies report a
/// geomean_best of 0.
std::vector<DeviceBest> per_device_geomean_best(const std::vector<RunRecord>& records,
                                                double max_error_percent);

}  // namespace hpac::harness
