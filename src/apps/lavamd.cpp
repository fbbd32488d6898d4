#include "apps/lavamd.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "apps/support.hpp"
#include "common/rng.hpp"

namespace hpac::apps {

namespace {
constexpr double kBoxSize = 1.0;
constexpr double kDt = 1e-3;  ///< relocation step after the force solve
}  // namespace

LavaMd::LavaMd() : LavaMd(Params{}) {}

LavaMd::LavaMd(Params params) : params_(params) {
  Xoshiro256 rng(params_.seed);
  const int nb = params_.boxes_per_dim;
  const int ppb = params_.particles_per_box;
  const std::uint64_t n = num_particles();
  pos_.resize(n * 3);
  charge_.resize(n);
  std::uint64_t p = 0;
  for (int bz = 0; bz < nb; ++bz) {
    for (int by = 0; by < nb; ++by) {
      for (int bx = 0; bx < nb; ++bx) {
        for (int i = 0; i < ppb; ++i, ++p) {
          pos_[p * 3 + 0] = (bx + rng.uniform()) * kBoxSize;
          pos_[p * 3 + 1] = (by + rng.uniform()) * kBoxSize;
          pos_[p * 3 + 2] = (bz + rng.uniform()) * kBoxSize;
          charge_[p] = rng.uniform(0.1, 1.0);
        }
      }
    }
  }
}

std::uint64_t LavaMd::num_particles() const {
  const auto nb = static_cast<std::uint64_t>(params_.boxes_per_dim);
  return nb * nb * nb * static_cast<std::uint64_t>(params_.particles_per_box);
}

harness::RunOutput LavaMd::run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                               const sim::DeviceConfig& device) {
  // The paper approximates "the force calculation for neighboring boxes":
  // one region invocation accumulates the contribution of *one neighbor
  // box* to one particle. The item space is neighbor-major
  // (item = j * P + particle) with the 27 neighbor offsets sorted by
  // distance, so a thread's successive invocations are the same
  // particle's contributions from increasingly distant boxes — decaying,
  // often negligible values with strong temporal locality.
  const std::uint64_t n_particles = num_particles();
  const int nb = params_.boxes_per_dim;
  const int ppb = params_.particles_per_box;
  const double a2 = params_.alpha * params_.alpha;
  constexpr int kNeighbors = 27;
  const std::uint64_t n_items = n_particles * kNeighbors;

  // Neighbor offsets sorted by center distance: own box first.
  std::array<std::array<int, 3>, kNeighbors> offsets;
  {
    int idx = 0;
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) offsets[static_cast<std::size_t>(idx++)] = {dx, dy, dz};
      }
    }
    // Far-to-near: a thread's invocation sequence starts with the
    // negligible (cutoff-zeroed) far boxes and ends at the home box, so
    // the TAF window stabilizes on the zero tail and deactivates when the
    // signal arrives.
    std::sort(offsets.begin(), offsets.end(), [](const auto& a, const auto& b) {
      const int da = a[0] * a[0] + a[1] * a[1] + a[2] * a[2];
      const int db = b[0] * b[0] + b[1] * b[1] + b[2] * b[2];
      return da > db;
    });
  }

  offload::Device dev(device);
  approx::RegionExecutor executor(device);
  harness::RunOutput output;

  std::vector<double> potential(n_particles, 0.0);
  std::vector<double> force(n_particles * 3, 0.0);
  std::vector<double> new_pos(pos_);

  offload::MapScope map_in(dev, n_particles * 4 * sizeof(double), offload::MapDir::kTo);
  offload::MapScope map_out(dev, n_particles * 7 * sizeof(double), offload::MapDir::kFrom);

  const auto box_coords = [nb, ppb](std::uint64_t particle) {
    const auto box = static_cast<int>(particle / static_cast<std::uint64_t>(ppb));
    return std::array<int, 3>{box % nb, (box / nb) % nb, box / (nb * nb)};
  };

  // --- force-contribution kernel (approximated) --------------------------
  approx::RegionBinding force_binding;
  force_binding.name = "lavamd.force";
  force_binding.in_dims = 4;   // position relative to the neighbor box + charge
  force_binding.out_dims = 4;  // potential + force contribution
  // Traffic: each invocation streams the neighbor box's particles — the
  // warp's lanes share a home box, so the load is a broadcast of about
  // ppb * 32 B per warp, i.e. ~24 B per lane. The accumulator lives in
  // registers and is written back once per particle (charged by the
  // relocation kernel), so the region itself stores nothing.
  force_binding.in_bytes = 24;
  force_binding.out_bytes = 0;
  const auto particle_of = [n_particles](std::uint64_t item) { return item % n_particles; };
  const auto neighbor_of = [n_particles](std::uint64_t item) {
    return static_cast<int>(item / n_particles);
  };
  const auto gather_one = [&](std::uint64_t item, double* in) {
    const std::uint64_t i = particle_of(item);
    const auto [bx, by, bz] = box_coords(i);
    const auto& off = offsets[static_cast<std::size_t>(neighbor_of(item))];
    in[0] = pos_[i * 3 + 0] - (bx + off[0] + 0.5) * kBoxSize;
    in[1] = pos_[i * 3 + 1] - (by + off[1] + 0.5) * kBoxSize;
    in[2] = pos_[i * 3 + 2] - (bz + off[2] + 0.5) * kBoxSize;
    in[3] = charge_[i];
  };
  bind_gather(force_binding, gather_one);
  const auto force_one = [&](std::uint64_t item, double* out) {
    const std::uint64_t i = particle_of(item);
    const auto& off = offsets[static_cast<std::size_t>(neighbor_of(item))];
    const auto [bx, by, bz] = box_coords(i);
    const int nx = bx + off[0], ny = by + off[1], nz = bz + off[2];
    out[0] = out[1] = out[2] = out[3] = 0.0;
    if (nx < 0 || ny < 0 || nz < 0 || nx >= nb || ny >= nb || nz >= nb) return;
    const double xi = pos_[i * 3 + 0];
    const double yi = pos_[i * 3 + 1];
    const double zi = pos_[i * 3 + 2];
    const std::uint64_t first =
        static_cast<std::uint64_t>((nz * nb + ny) * nb + nx) * static_cast<std::uint64_t>(ppb);
    double v = 0, fx = 0, fy = 0, fz = 0;
    // Standard MD cutoff: pairs beyond kBoxSize contribute exactly zero.
    // The SIMD loop still evaluates every pair (no divergent early exit),
    // so the cost model charges the full box — but distant boxes produce
    // exact-zero outputs, the near-constant tail TAF memoizes at ~zero
    // error (the paper's 2.98x @ 0.133% regime).
    const double cutoff2 = kBoxSize * kBoxSize;
    for (int j = 0; j < ppb; ++j) {
      const std::uint64_t q = first + static_cast<std::uint64_t>(j);
      if (q == i) continue;
      const double rx = pos_[q * 3 + 0] - xi;
      const double ry = pos_[q * 3 + 1] - yi;
      const double rz = pos_[q * 3 + 2] - zi;
      const double r2 = rx * rx + ry * ry + rz * rz;
      if (r2 >= cutoff2) continue;
      const double w = charge_[q] * std::exp(-r2 / a2);
      v += w;
      fx += w * rx;
      fy += w * ry;
      fz += w * rz;
    }
    out[0] = v;
    out[1] = fx;
    out[2] = fy;
    out[3] = fz;
  };
  bind_accurate(force_binding, force_one);
  // One neighbor box: ppb interactions of ~14 FLOPs (distance + exp).
  bind_constant_cost(force_binding, ppb * 14.0 + 8.0);
  // Each item commits its 4 outputs into its own contribution row and
  // marks itself committed (perforated items are never committed), so the
  // launch is independent_items and shards. The rows are folded into the
  // per-particle accumulators after the launch, in the serial walk's
  // order. The flags are bytes, not vector<bool> bits: shards write
  // neighboring flags concurrently.
  std::vector<double> contribution(n_items * 4);
  std::vector<unsigned char> committed(n_items, 0);
  const auto commit_one = [&](std::uint64_t item, const double* out) {
    std::copy(out, out + 4, contribution.begin() + static_cast<std::ptrdiff_t>(item * 4));
    committed[item] = 1;
  };
  bind_commit(force_binding, commit_one);
  force_binding.independent_items = true;
  force_binding.commit_extents = {approx::audit::dense(contribution.data(), 4),
                                  approx::audit::dense(committed.data())};

  // `items_per_thread` counts particles per thread; every particle brings
  // 27 neighbor-box region invocations.
  const std::uint64_t threads_needed = std::max<std::uint64_t>(
      1, n_particles / std::max<std::uint64_t>(1, items_per_thread));
  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(
      n_items, n_items / threads_needed, threads_per_team());
  launch_kernel(dev, executor, spec, force_binding, n_items, launch, &output.stats);

  // Fold the rows into each particle's accumulators in the order the
  // serial walk commits them. Per particle that is not ascending neighbor
  // index: when the thread count does not divide the particle count, a
  // particle's later neighbors land on lower-numbered teams.
  launch.for_each_in_walk_order(n_items, [&](std::uint64_t item) {
    if (committed[item] == 0) return;
    const std::uint64_t i = particle_of(item);
    const double* row = contribution.data() + item * 4;
    potential[i] += row[0];
    force[i * 3 + 0] += row[1];
    force[i * 3 + 1] += row[2];
    force[i * 3 + 2] += row[3];
  });

  // --- relocation kernel (always accurate) ------------------------------
  approx::RegionBinding move_binding;
  move_binding.name = "lavamd.move";
  move_binding.in_dims = 0;
  move_binding.out_dims = 3;
  move_binding.in_bytes = 6 * sizeof(double);
  move_binding.out_bytes = 3 * sizeof(double);
  const auto move_one = [this, &force](std::uint64_t i, double* out) {
    out[0] = pos_[i * 3 + 0] + kDt * force[i * 3 + 0];
    out[1] = pos_[i * 3 + 1] + kDt * force[i * 3 + 1];
    out[2] = pos_[i * 3 + 2] + kDt * force[i * 3 + 2];
  };
  bind_accurate(move_binding, move_one);
  bind_constant_cost(move_binding, 9.0);
  const auto commit_move = [&new_pos](std::uint64_t i, const double* out) {
    new_pos[i * 3 + 0] = out[0];
    new_pos[i * 3 + 1] = out[1];
    new_pos[i * 3 + 2] = out[2];
  };
  bind_commit(move_binding, commit_move);
  move_binding.independent_items = true;  // each item touches only new_pos[i]
  move_binding.commit_extents = {approx::audit::dense(new_pos.data(), 3)};
  const sim::LaunchConfig move_launch =
      sim::launch_for_items_per_thread(n_particles, 1, threads_per_team());
  launch_kernel(dev, executor, apps::accurate_spec(), move_binding, n_particles, move_launch,
                nullptr);

  output.timeline = dev.timeline();
  // QoI: the final force and location of each particle (Table 1). Force
  // enters as its magnitude — the signed components of a near-equilibrium
  // particle cancel to ~0 and would turn any absolute perturbation into
  // an unbounded *relative* error, which MAPE cannot weigh meaningfully.
  output.qoi.reserve(n_particles * 5);
  for (std::uint64_t i = 0; i < n_particles; ++i) {
    output.qoi.push_back(potential[i]);
    const double fx = force[i * 3 + 0], fy = force[i * 3 + 1], fz = force[i * 3 + 2];
    output.qoi.push_back(std::sqrt(fx * fx + fy * fy + fz * fz));
    for (int c = 0; c < 3; ++c) output.qoi.push_back(new_pos[i * 3 + c]);
  }
  return output;
}

}  // namespace hpac::apps
