#include "harness/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <tuple>

#include "common/error.hpp"

namespace hpac::harness {

std::optional<RunRecord> best_under_error(const std::vector<RunRecord>& records,
                                          double max_error_percent) {
  std::optional<RunRecord> best;
  for (const auto& r : records) {
    if (!r.feasible || !(r.error_percent < max_error_percent)) continue;
    if (!best || r.speedup > best->speedup) best = r;
  }
  return best;
}

std::vector<double> errors_under(const std::vector<RunRecord>& records,
                                 double max_error_percent) {
  std::vector<double> out;
  for (const auto& r : records) {
    if (r.feasible && r.error_percent < max_error_percent) out.push_back(r.error_percent);
  }
  return out;
}

std::vector<RunRecord> decimate_for_plot(const std::vector<RunRecord>& records, int intervals,
                                         double keep_fraction) {
  HPAC_REQUIRE(intervals > 0, "need at least one interval");
  HPAC_REQUIRE(keep_fraction > 0.0 && keep_fraction <= 1.0, "keep fraction in (0,1]");
  // A NaN or infinite error has no place on the error axis.
  std::vector<RunRecord> feasible;
  for (const auto& r : records) {
    if (r.feasible && std::isfinite(r.error_percent)) feasible.push_back(r);
  }
  if (feasible.empty()) return {};
  double lo = feasible.front().error_percent;
  double hi = lo;
  for (const auto& r : feasible) {
    lo = std::min(lo, r.error_percent);
    hi = std::max(hi, r.error_percent);
  }
  if (hi == lo) return feasible;

  std::vector<std::vector<RunRecord>> bins(static_cast<std::size_t>(intervals));
  for (const auto& r : feasible) {
    auto bin = static_cast<std::size_t>((r.error_percent - lo) / (hi - lo) * intervals);
    bin = std::min(bin, static_cast<std::size_t>(intervals - 1));
    bins[bin].push_back(r);
  }
  std::vector<RunRecord> kept;
  for (auto& bin : bins) {
    if (bin.empty()) continue;
    std::sort(bin.begin(), bin.end(),
              [](const RunRecord& a, const RunRecord& b) { return a.speedup < b.speedup; });
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(bin.size()) * keep_fraction));
    for (std::size_t i = 0; i < keep && i < bin.size(); ++i) kept.push_back(bin[i]);
    for (std::size_t i = 0; i < keep && bin.size() > keep + i; ++i) {
      kept.push_back(bin[bin.size() - 1 - i]);
    }
  }
  return kept;
}

std::vector<GroupStats> group_box_stats(
    const std::vector<RunRecord>& records,
    const std::function<std::string(const RunRecord&)>& key_of) {
  std::map<std::string, std::vector<double>> groups;
  for (const auto& r : records) {
    if (r.feasible) groups[key_of(r)].push_back(r.speedup);
  }
  std::vector<GroupStats> out;
  for (auto& [key, speedups] : groups) {
    GroupStats g;
    g.key = key;
    g.box = stats::box_stats(speedups);
    g.count = speedups.size();
    out.push_back(std::move(g));
  }
  return out;
}

ConvergenceCorrelation convergence_correlation(const std::vector<RunRecord>& records) {
  ConvergenceCorrelation c;
  for (const auto& r : records) {
    if (!r.feasible || r.iterations <= 0 || r.baseline_iterations <= 0) continue;
    c.convergence_speedup.push_back(r.baseline_iterations / r.iterations);
    c.time_speedup.push_back(r.speedup);
  }
  if (c.convergence_speedup.size() >= 2) {
    c.regression = stats::linear_regression(c.convergence_speedup, c.time_speedup);
  }
  return c;
}

double geomean_best_speedup(const std::vector<RunRecord>& records, double max_error_percent) {
  std::map<std::pair<std::string, std::string>, double> best;
  for (const auto& r : records) {
    if (!r.feasible || !(r.error_percent < max_error_percent)) continue;
    auto key = std::make_pair(r.benchmark, pragma::technique_name(r.technique));
    auto it = best.find(key);
    if (it == best.end() || r.speedup > it->second) best[key] = r.speedup;
  }
  std::vector<double> values;
  values.reserve(best.size());
  for (const auto& [key, speedup] : best) values.push_back(speedup);
  if (values.empty()) return 0.0;
  return stats::geomean(values);
}

std::vector<DeviceBest> per_device_geomean_best(const std::vector<RunRecord>& records,
                                                double max_error_percent) {
  // Single pass over the database — no per-device record copies; campaign
  // databases reach paper scale (tens of thousands of rows).
  std::map<std::string, DeviceBest> summary;
  std::map<std::tuple<std::string, std::string, std::string>, double> best;
  for (const auto& r : records) {
    auto [it, inserted] = summary.try_emplace(r.device);
    if (inserted) it->second.device = r.device;
    ++it->second.total;
    if (!r.feasible) continue;
    ++it->second.feasible;
    if (!(r.error_percent < max_error_percent)) continue;
    auto key = std::make_tuple(r.device, r.benchmark, pragma::technique_name(r.technique));
    auto best_it = best.find(key);
    if (best_it == best.end() || r.speedup > best_it->second) best[std::move(key)] = r.speedup;
  }
  std::map<std::string, std::vector<double>> speedups;
  for (const auto& [key, speedup] : best) speedups[std::get<0>(key)].push_back(speedup);
  std::vector<DeviceBest> out;
  for (auto& [device, row] : summary) {
    const auto it = speedups.find(device);
    if (it != speedups.end()) row.geomean_best = stats::geomean(it->second);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace hpac::harness
