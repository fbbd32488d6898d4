#include "apps/minife.hpp"

#include <cmath>

#include "apps/support.hpp"

namespace hpac::apps {

MiniFe::MiniFe() : MiniFe(Params{}) {}

MiniFe::MiniFe(Params params) : params_(params) {
  const int g = params_.grid;
  rows_ = static_cast<std::uint64_t>(g) * g * g;
  row_ptr_.reserve(rows_ + 1);
  row_ptr_.push_back(0);
  const auto index = [g](int i, int j, int k) {
    return static_cast<std::uint64_t>((k * g + j) * g + i);
  };
  for (int k = 0; k < g; ++k) {
    for (int j = 0; j < g; ++j) {
      for (int i = 0; i < g; ++i) {
        // 7-point Laplacian stencil with Dirichlet truncation at the
        // boundary: interior rows have 7 non-zeros, faces fewer — the
        // non-uniform row structure that rules out iACT.
        const auto add = [this](std::uint64_t col, double value) {
          col_idx_.push_back(col);
          values_.push_back(value);
        };
        add(index(i, j, k), 6.0);
        if (i > 0) add(index(i - 1, j, k), -1.0);
        if (i < g - 1) add(index(i + 1, j, k), -1.0);
        if (j > 0) add(index(i, j - 1, k), -1.0);
        if (j < g - 1) add(index(i, j + 1, k), -1.0);
        if (k > 0) add(index(i, j, k - 1), -1.0);
        if (k < g - 1) add(index(i, j, k + 1), -1.0);
        row_ptr_.push_back(col_idx_.size());
      }
    }
  }
  rhs_.assign(rows_, 1.0);  // uniform body load
}

harness::RunOutput MiniFe::run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                               const sim::DeviceConfig& device) {
  const std::uint64_t n = rows_;
  offload::Device dev(device);
  approx::RegionExecutor executor(device);
  harness::RunOutput output;

  std::vector<double> x(n, 0.0), r(rhs_), p(rhs_), ap(n, 0.0);

  offload::MapScope map_matrix(
      dev, values_.size() * (sizeof(double) + sizeof(std::uint64_t)) + row_ptr_.size() * 8,
      offload::MapDir::kTo);
  offload::MapScope map_vectors(dev, n * 4 * sizeof(double), offload::MapDir::kToFrom);

  // --- SpMV row product (approximated) ------------------------------------
  approx::RegionBinding spmv;
  spmv.name = "minife.spmv";
  spmv.in_dims = 0;  // varying row width: no uniform iACT key (see header)
  spmv.out_dims = 1;
  spmv.in_bytes = 7 * (sizeof(double) + sizeof(std::uint64_t)) + sizeof(double);
  spmv.out_bytes = sizeof(double);
  const auto spmv_one = [&](std::uint64_t row, double* out) {
    double sum = 0.0;
    for (std::uint64_t idx = row_ptr_[row]; idx < row_ptr_[row + 1]; ++idx) {
      sum += values_[idx] * p[col_idx_[idx]];
    }
    out[0] = sum;
  };
  bind_accurate(spmv, spmv_one);
  // Row widths vary (the CSR structure), so the cost is a real max over
  // the warp's rows — not a bind_constant_cost candidate.
  spmv.accurate_cost_batch = [this](std::uint64_t first, sim::LaneMask lanes) {
    double cost = 0.0;
    sim::for_each_lane(lanes, [&](int lane) {
      const std::uint64_t row = first + static_cast<std::uint64_t>(lane);
      cost = std::max(cost, 6.0 * static_cast<double>(row_ptr_[row + 1] - row_ptr_[row]) + 10.0);
    });
    return cost;
  };
  bind_commit(spmv, [&ap](std::uint64_t row, const double* out) { ap[row] = out[0]; });
  spmv.independent_items = true;  // reads p (stable here), writes only ap[row]
  spmv.commit_extents = {approx::audit::dense(ap.data())};

  // --- vector kernels (accurate) -------------------------------------------
  double dot_acc = 0.0;
  approx::RegionBinding dot_pap;
  dot_pap.name = "minife.dot_pap";
  dot_pap.out_dims = 1;
  dot_pap.in_bytes = 2 * sizeof(double);
  dot_pap.out_bytes = 0;
  bind_accurate(dot_pap, [&](std::uint64_t i, double* out) { out[0] = p[i] * ap[i]; });
  bind_constant_cost(dot_pap, 4.0);
  bind_commit(dot_pap, [&dot_acc](std::uint64_t, const double* out) { dot_acc += out[0]; });
  // NOT independent_items: the dot product accumulates in serial item
  // order, which launch sharding would reorder.

  double alpha = 0.0;
  approx::RegionBinding update_x_r;
  update_x_r.name = "minife.update_x_r";
  update_x_r.out_dims = 2;
  update_x_r.in_bytes = 4 * sizeof(double);
  update_x_r.out_bytes = 2 * sizeof(double);
  bind_accurate(update_x_r, [&](std::uint64_t i, double* out) {
    out[0] = x[i] + alpha * p[i];
    out[1] = r[i] - alpha * ap[i];
  });
  bind_constant_cost(update_x_r, 8.0);
  bind_commit(update_x_r, [&](std::uint64_t i, const double* out) {
    x[i] = out[0];
    r[i] = out[1];
  });
  update_x_r.independent_items = true;  // touches only x[i], r[i]
  update_x_r.commit_extents = {approx::audit::dense(x.data()), approx::audit::dense(r.data())};

  double rr_acc = 0.0;
  approx::RegionBinding dot_rr;
  dot_rr.name = "minife.dot_rr";
  dot_rr.out_dims = 1;
  dot_rr.in_bytes = sizeof(double);
  dot_rr.out_bytes = 0;
  bind_accurate(dot_rr, [&](std::uint64_t i, double* out) { out[0] = r[i] * r[i]; });
  bind_constant_cost(dot_rr, 3.0);
  bind_commit(dot_rr, [&rr_acc](std::uint64_t, const double* out) { rr_acc += out[0]; });
  // NOT independent_items: serial-order floating-point reduction.

  double beta = 0.0;
  approx::RegionBinding update_p;
  update_p.name = "minife.update_p";
  update_p.out_dims = 1;
  update_p.in_bytes = 2 * sizeof(double);
  update_p.out_bytes = sizeof(double);
  bind_accurate(update_p, [&](std::uint64_t i, double* out) { out[0] = r[i] + beta * p[i]; });
  bind_constant_cost(update_p, 4.0);
  bind_commit(update_p, [&p](std::uint64_t i, const double* out) { p[i] = out[0]; });
  update_p.independent_items = true;  // touches only p[i]
  update_p.commit_extents = {approx::audit::dense(p.data())};

  const sim::LaunchConfig spmv_launch =
      sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
  const sim::LaunchConfig vec_launch = sim::launch_for_items_per_thread(n, 1, threads_per_team());

  double rr = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) rr += r[i] * r[i];
  const double stop = params_.tolerance * params_.tolerance * rr;

  int iterations = 0;
  for (; iterations < params_.max_iterations && rr > stop; ++iterations) {
    launch_kernel(dev, executor, spec, spmv, n, spmv_launch, &output.stats);
    dot_acc = 0.0;
    launch_kernel(dev, executor, accurate_spec(), dot_pap, n, vec_launch, nullptr);
    if (dot_acc == 0.0 || !std::isfinite(dot_acc)) break;  // solver broke down
    alpha = rr / dot_acc;
    launch_kernel(dev, executor, accurate_spec(), update_x_r, n, vec_launch, nullptr);
    rr_acc = 0.0;
    launch_kernel(dev, executor, accurate_spec(), dot_rr, n, vec_launch, nullptr);
    if (!std::isfinite(rr_acc)) break;
    beta = rr_acc / rr;
    rr = rr_acc;
    launch_kernel(dev, executor, accurate_spec(), update_p, n, vec_launch, nullptr);
  }

  output.timeline = dev.timeline();
  output.qoi = {std::sqrt(std::max(rr, 0.0))};  // final residual norm (Table 1)
  output.iterations = iterations;
  return output;
}

}  // namespace hpac::apps
