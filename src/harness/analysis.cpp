#include "harness/analysis.hpp"

#include <functional>
#include <map>
#include <tuple>

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
