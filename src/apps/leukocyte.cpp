#include "apps/leukocyte.hpp"

#include <cmath>

#include "apps/support.hpp"
#include "common/rng.hpp"

namespace hpac::apps {

Leukocyte::Leukocyte() : Leukocyte(Params{}) {}

Leukocyte::Leukocyte(Params params) : params_(params) {
  Xoshiro256 rng(params_.seed);
  const int s = params_.patch;
  image_.resize(num_pixels(), 0.0);
  true_center_.resize(static_cast<std::size_t>(params_.num_cells) * 2);
  for (int c = 0; c < params_.num_cells; ++c) {
    // An elliptical cell boundary near the patch center: bright ring in
    // the gradient-magnitude image, like the GICOV stage's detections.
    const double cr = s / 2.0 + rng.uniform(-2.0, 2.0);
    const double cc = s / 2.0 + rng.uniform(-2.0, 2.0);
    const double ra = rng.uniform(4.0, 7.0);
    const double rb = rng.uniform(4.0, 7.0);
    true_center_[static_cast<std::size_t>(c) * 2 + 0] = cr;
    true_center_[static_cast<std::size_t>(c) * 2 + 1] = cc;
    for (int i = 0; i < s; ++i) {
      for (int j = 0; j < s; ++j) {
        const double dr = (i - cr) / ra;
        const double dc = (j - cc) / rb;
        const double ring = std::exp(-8.0 * std::pow(std::sqrt(dr * dr + dc * dc) - 1.0, 2));
        const double noise = 0.05 * rng.uniform();
        image_[(static_cast<std::size_t>(c) * s + static_cast<std::size_t>(i)) * s +
               static_cast<std::size_t>(j)] = ring + noise;
      }
    }
  }
}

std::uint64_t Leukocyte::num_pixels() const {
  return static_cast<std::uint64_t>(params_.num_cells) * params_.patch * params_.patch;
}

harness::RunOutput Leukocyte::run(const pragma::ApproxSpec& spec,
                                  std::uint64_t items_per_thread,
                                  const sim::DeviceConfig& device) {
  const int s = params_.patch;
  const std::uint64_t n = num_pixels();
  const double mu = params_.mu;
  const double lambda = params_.lambda;

  offload::Device dev(device);
  approx::RegionExecutor executor(device);
  harness::RunOutput output;

  // IMGVF field, double-buffered across iterations.
  std::vector<double> field(image_);
  std::vector<double> next(field);

  offload::MapScope map_img(dev, n * sizeof(double), offload::MapDir::kTo);
  offload::MapScope map_field(dev, n * sizeof(double), offload::MapDir::kToFrom);

  const auto decode = [s](std::uint64_t item) {
    const int pixel = static_cast<int>(item % static_cast<std::uint64_t>(s * s));
    const auto cell = static_cast<int>(item / static_cast<std::uint64_t>(s * s));
    return std::array<int, 3>{cell, pixel / s, pixel % s};
  };
  const auto at = [this, s, &field](int cell, int i, int j) -> double {
    i = std::clamp(i, 0, s - 1);
    j = std::clamp(j, 0, s - 1);
    return field[(static_cast<std::size_t>(cell) * s + static_cast<std::size_t>(i)) * s +
                 static_cast<std::size_t>(j)];
  };

  approx::RegionBinding imgvf;
  imgvf.name = "leukocyte.imgvf";
  imgvf.in_dims = 6;  // pixel value, image value, 4-neighborhood
  imgvf.out_dims = 1;
  imgvf.in_bytes = 6 * sizeof(double);
  imgvf.out_bytes = sizeof(double);
  const auto gather_one = [&](std::uint64_t item, double* in) {
    const auto [cell, i, j] = decode(item);
    in[0] = at(cell, i, j);
    in[1] = image_[item];
    in[2] = at(cell, i - 1, j);
    in[3] = at(cell, i + 1, j);
    in[4] = at(cell, i, j - 1);
    in[5] = at(cell, i, j + 1);
  };
  bind_gather(imgvf, gather_one);
  const auto imgvf_one = [&](std::uint64_t item, double* out) {
    const auto [cell, i, j] = decode(item);
    const double val = at(cell, i, j);
    // Heaviside-weighted neighbor flow (the IMGVF kernel's directional
    // smoothing), plus the data term pulling toward strong gradients.
    double flow = 0.0;
    const double nbs[4] = {at(cell, i - 1, j), at(cell, i + 1, j), at(cell, i, j - 1),
                           at(cell, i, j + 1)};
    for (double nb : nbs) {
      const double d = nb - val;
      const double h = 1.0 / (1.0 + std::exp(-5.0 * d));  // smoothed heaviside
      flow += h * d;
    }
    const double img = image_[item];
    out[0] = val + mu * flow - lambda * (val - img) * img * img;
  };
  bind_accurate(imgvf, imgvf_one);
  // Four heaviside evaluations (exp) dominate: ~30 cycles each.
  bind_constant_cost(imgvf, 140.0);
  const auto commit_one = [&next](std::uint64_t item, const double* out) {
    next[item] = out[0];
  };
  bind_commit(imgvf, commit_one);
  imgvf.independent_items = true;  // reads `field`, writes only next[item]
  // Rows hold raw pointers and `field` and `next` swap buffers between
  // iterations, so the rows are re-declared before every launch. The
  // 5-point stencil clamps at its cell's border, so a pixel reads only
  // its own cell of the *previous* field: each cell's pixels declare a
  // read of that whole cell. The superset is harmless because this
  // launch does not write `field`, and the auditor's read/write check
  // verifies that instead of taking it on faith.
  const std::uint64_t cell_pixels = static_cast<std::uint64_t>(s) * s;
  const auto declare_extents = [&] {
    imgvf.commit_extents = {approx::audit::dense(next.data())};
    imgvf.read_extents = {approx::audit::dense(image_.data())};
    for (std::uint64_t first = 0; first < n; first += cell_pixels) {
      imgvf.read_extents.push_back({.ptr = field.data() + first,
                                    .stride = 0,
                                    .len = cell_pixels * sizeof(double),
                                    .first = first,
                                    .last = first + cell_pixels});
    }
  };

  const sim::LaunchConfig launch =
      sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());

  for (int iter = 0; iter < params_.iterations; ++iter) {
    declare_extents();
    launch_kernel(dev, executor, spec, imgvf, n, launch, &output.stats);
    std::swap(field, next);
    next = field;  // perforated pixels keep their previous value next round
  }

  // Host: cell locations = intensity centroids of the converged field.
  output.qoi.reserve(static_cast<std::size_t>(params_.num_cells) * 2);
  for (int c = 0; c < params_.num_cells; ++c) {
    double wsum = 0, rsum = 0, csum = 0;
    for (int i = 0; i < s; ++i) {
      for (int j = 0; j < s; ++j) {
        const double w =
            field[(static_cast<std::size_t>(c) * s + static_cast<std::size_t>(i)) * s +
                  static_cast<std::size_t>(j)];
        wsum += w;
        rsum += w * i;
        csum += w * j;
      }
    }
    output.qoi.push_back(wsum > 0 ? rsum / wsum : 0.0);
    output.qoi.push_back(wsum > 0 ? csum / wsum : 0.0);
  }
  dev.record_host(static_cast<double>(n) * 3.0 / 10e9);
  output.timeline = dev.timeline();
  output.iterations = params_.iterations;
  return output;
}

}  // namespace hpac::apps
