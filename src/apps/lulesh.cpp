#include "apps/lulesh.hpp"

#include <algorithm>
#include <cmath>

#include "apps/support.hpp"

namespace hpac::apps {

namespace {
constexpr double kQuadraticQ = 2.0;  ///< quadratic artificial-viscosity coefficient
constexpr double kLinearQ = 0.25;    ///< linear artificial-viscosity coefficient
constexpr double kHourglassCoef = 0.01;
constexpr double kEnergyFloor = 1e-10;
}  // namespace

Lulesh::Lulesh() : Lulesh(Params{}) {}

Lulesh::Lulesh(Params params) : params_(params) {}

harness::RunOutput Lulesh::run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                               const sim::DeviceConfig& device) {
  const std::uint64_t n = params_.num_elems;
  const double gamma = params_.gamma;
  const double dx0 = 1.0 / static_cast<double>(n);
  const double elem_mass = dx0;  // rho0 = 1

  // Node fields (n + 1) and element fields (n).
  std::vector<double> x(n + 1), u(n + 1, 0.0);
  std::vector<double> e(n, 1e-6), rho(n, 1.0), p(n), q(n, 0.0), sigma(n), volume(n, dx0);
  for (std::uint64_t i = 0; i <= n; ++i) x[i] = static_cast<double>(i) * dx0;
  e[0] = params_.blast_energy;  // Sedov: energy deposited at the origin
  for (std::uint64_t j = 0; j < n; ++j) p[j] = (gamma - 1.0) * rho[j] * e[j];
  for (std::uint64_t j = 0; j < n; ++j) sigma[j] = p[j];
  // Element j's Courant bound on the timestep (LULESH's
  // CalcTimeConstraints term). Only elem_update changes its inputs, so
  // that launch's commit refreshes it and the host reduction is a min.
  const auto courant_bound = [&](std::uint64_t j) {
    return volume[j] / (std::sqrt(gamma * std::max(p[j], 0.0) / rho[j]) + 1e-12);
  };
  std::vector<double> dt_bound(n);
  for (std::uint64_t j = 0; j < n; ++j) dt_bound[j] = courant_bound(j);

  // Audit rows: `dense(f.data())` is element j's own f[j], and
  // `node_pair(nodes)` its node pair nodes[j], nodes[j+1].
  using approx::audit::dense;
  const auto node_pair = [](const std::vector<double>& nodes) {
    return approx::audit::Extent{
        .ptr = nodes.data(), .stride = sizeof(double), .len = 2 * sizeof(double)};
  };

  offload::Device dev(device);
  approx::RegionExecutor executor(device);
  harness::RunOutput output;

  offload::MapScope map_state(dev, (2 * (n + 1) + 4 * n) * sizeof(double),
                              offload::MapDir::kTo);
  offload::MapScope map_energy(dev, n * sizeof(double), offload::MapDir::kFrom);

  // --- kernel 1: CalcHourglassControlForElems (approximated) -------------
  approx::RegionBinding hourglass_control;
  hourglass_control.name = "lulesh.hourglass_control";
  hourglass_control.in_dims = 3;
  hourglass_control.out_dims = 1;
  hourglass_control.in_bytes = 4 * sizeof(double);
  hourglass_control.out_bytes = sizeof(double);
  const auto hourglass_gather_one = [&](std::uint64_t j, double* in) {
    in[0] = rho[j];
    in[1] = e[j];
    in[2] = u[j + 1] - u[j];
  };
  bind_gather(hourglass_control, hourglass_gather_one);
  const auto hourglass_one = [&](std::uint64_t j, double* out) {
    const double du = u[j + 1] - u[j];
    const double cs = std::sqrt(gamma * std::max(p[j], 0.0) / rho[j]);
    double visc = 0.0;
    if (du < 0.0) {  // element under compression
      visc = rho[j] * (kQuadraticQ * du * du + kLinearQ * cs * (-du));
    }
    // Hourglass-mode damping: keeps spurious modes bounded; stands in for
    // the 3-D kernel's per-mode work.
    visc += kHourglassCoef * rho[j] * cs * std::abs(du);
    out[0] = visc;
  };
  bind_accurate(hourglass_control, hourglass_one);
  // The 3-D kernel loops over 8 hourglass modes per element with gathers
  // from 8 nodes — a few hundred cycles.
  bind_constant_cost(hourglass_control, 220.0);
  bind_commit(hourglass_control, [&](std::uint64_t j, const double* out) { q[j] = out[0]; });
  hourglass_control.independent_items = true;  // writes only q[j]
  hourglass_control.commit_extents = {dense(q.data())};
  // Element j reads its own state plus the u[j], u[j+1] node pair — the
  // stencil that makes this worth declaring: u is not written here, so
  // the cross-item overlap on u[j+1] is read/read and audits clean.
  hourglass_control.read_extents = {dense(rho.data()), dense(e.data()), dense(p.data()),
                                    node_pair(u)};

  // --- kernel 2: CalcFBHourglassForceForElems (approximated) -------------
  approx::RegionBinding fb_hourglass;
  fb_hourglass.name = "lulesh.fb_hourglass";
  fb_hourglass.in_dims = 2;
  fb_hourglass.out_dims = 1;
  fb_hourglass.in_bytes = 2 * sizeof(double);
  fb_hourglass.out_bytes = sizeof(double);
  const auto fb_gather_one = [&](std::uint64_t j, double* in) {
    in[0] = p[j];
    in[1] = q[j];
  };
  bind_gather(fb_hourglass, fb_gather_one);
  const auto fb_one = [&](std::uint64_t j, double* out) {
    const double cs = std::sqrt(gamma * std::max(p[j], 0.0) / rho[j]);
    const double du = u[j + 1] - u[j];
    // Stress plus an hourglass-force correction term.
    out[0] = p[j] + q[j] + kHourglassCoef * rho[j] * cs * du;
  };
  bind_accurate(fb_hourglass, fb_one);
  bind_constant_cost(fb_hourglass, 180.0);
  bind_commit(fb_hourglass, [&](std::uint64_t j, const double* out) { sigma[j] = out[0]; });
  fb_hourglass.independent_items = true;  // writes only sigma[j]
  fb_hourglass.commit_extents = {dense(sigma.data())};
  fb_hourglass.read_extents = {dense(p.data()), dense(q.data()), dense(rho.data()),
                               node_pair(u)};

  // --- kernel 3: node update (accurate) -----------------------------------
  double dt = 1e-6;
  approx::RegionBinding node_update;
  node_update.name = "lulesh.node_update";
  node_update.in_dims = 0;
  node_update.out_dims = 2;
  node_update.in_bytes = 4 * sizeof(double);
  node_update.out_bytes = 2 * sizeof(double);
  const auto node_one = [&](std::uint64_t i, double* out) {
    if (i == 0) {  // reflective wall at the origin
      out[0] = 0.0;
      out[1] = x[0];
      return;
    }
    const double stress_left = sigma[i - 1];
    const double stress_right = i < n ? sigma[i] : 0.0;  // vacuum outside
    const double node_mass = i < n ? elem_mass : elem_mass * 0.5;
    const double accel = (stress_left - stress_right) / node_mass;
    const double vel = u[i] + accel * dt;
    out[0] = vel;
    out[1] = x[i] + vel * dt;
  };
  bind_accurate(node_update, node_one);
  bind_constant_cost(node_update, 16.0);
  bind_commit(node_update, [&](std::uint64_t i, const double* out) {
    u[i] = out[0];
    x[i] = out[1];
  });
  // Item i reads only its own u[i]/x[i] plus sigma (not written here).
  node_update.independent_items = true;
  node_update.commit_extents = {dense(u.data()), dense(x.data())};
  // Node i reads the two adjacent element stresses (sigma is not written
  // by this launch) and its own u/x — the same-item overlap with the
  // writes above is exempt from the read/write check by construction.
  // The wall node 0 has no left element and node n no right one, so
  // sigma[i-1] covers nodes [1, n+1) and sigma[i] nodes [0, n).
  node_update.read_extents = {
      dense(u.data()), dense(x.data()),
      {.ptr = sigma.data(), .stride = sizeof(double), .len = sizeof(double), .first = 1,
       .last = n + 1},
      {.ptr = sigma.data(), .stride = sizeof(double), .len = sizeof(double), .last = n}};

  // --- kernel 4: element update, EOS (accurate) ---------------------------
  approx::RegionBinding elem_update;
  elem_update.name = "lulesh.elem_update";
  elem_update.in_dims = 0;
  elem_update.out_dims = 3;
  elem_update.in_bytes = 5 * sizeof(double);
  elem_update.out_bytes = 3 * sizeof(double);
  const auto elem_one = [&](std::uint64_t j, double* out) {
    const double new_volume = x[j + 1] - x[j];
    const double dv = new_volume - volume[j];
    double energy = e[j] - (p[j] + q[j]) * dv / elem_mass;
    energy = std::max(energy, kEnergyFloor);
    const double density = elem_mass / std::max(new_volume, 1e-12);
    out[0] = energy;
    out[1] = density;
    out[2] = new_volume;
  };
  bind_accurate(elem_update, elem_one);
  bind_constant_cost(elem_update, 24.0);
  bind_commit(elem_update, [&](std::uint64_t j, const double* out) {
    e[j] = out[0];
    rho[j] = out[1];
    volume[j] = out[2];
    p[j] = (gamma - 1.0) * rho[j] * e[j];
    dt_bound[j] = courant_bound(j);
  });
  // Item j reads x[j+1] (not written here) and its own element fields.
  elem_update.independent_items = true;
  elem_update.commit_extents = {dense(e.data()), dense(rho.data()), dense(volume.data()),
                                dense(p.data()), dense(dt_bound.data())};
  // Element j reads the x[j], x[j+1] node pair (not written here) and its
  // own element fields; q is read-only in this launch.
  elem_update.read_extents = {node_pair(x), dense(volume.data()), dense(e.data()),
                              dense(p.data()), dense(q.data())};

  const sim::LaunchConfig approx_launch =
      sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
  const sim::LaunchConfig node_launch =
      sim::launch_for_items_per_thread(n + 1, 1, threads_per_team());
  const sim::LaunchConfig elem_launch =
      sim::launch_for_items_per_thread(n, 1, threads_per_team());

  for (int step = 0; step < params_.num_steps; ++step) {
    // Host-side Courant reduction (LULESH's CalcTimeConstraints): the
    // per-element bounds come from elem_update's commit (or the initial
    // fill), so the host only takes their min, which is exact.
    double min_dt = 1e9;
    for (const double bound : dt_bound) min_dt = std::min(min_dt, bound);
    dt = std::min(params_.cfl * min_dt, dt * 1.1);
    dev.record_host(static_cast<double>(n) * 2.0 / 10e9);

    launch_kernel(dev, executor, spec, hourglass_control, n, approx_launch, &output.stats);
    launch_kernel(dev, executor, spec, fb_hourglass, n, approx_launch, &output.stats);
    launch_kernel(dev, executor, accurate_spec(), node_update, n + 1, node_launch, nullptr);
    launch_kernel(dev, executor, accurate_spec(), elem_update, n, elem_launch, nullptr);
  }

  output.timeline = dev.timeline();
  // QoI: the final origin energy (Table 1).
  output.qoi = {e[0]};
  return output;
}

}  // namespace hpac::apps
