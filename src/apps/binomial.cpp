#include "apps/binomial.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "apps/simd_kernels.hpp"
#include "apps/support.hpp"
#include "common/rng.hpp"

namespace hpac::apps {

namespace {
constexpr double kRiskFree = 0.02;
constexpr double kVolatility = 0.30;
}  // namespace

double BinomialOptions::tree_price(double spot, double strike, double expiry, int steps,
                                   double rate, double volatility) {
  const double dt = expiry / steps;
  const double v_sqrt_dt = volatility * std::sqrt(dt);
  const double up = std::exp(v_sqrt_dt);
  const double down = 1.0 / up;
  const double growth = std::exp(rate * dt);
  const double p_up = (growth - down) / (up - down);
  const double p_down = 1.0 - p_up;
  const double discount = 1.0 / growth;

  thread_local std::vector<double> values;
  values.assign(static_cast<std::size_t>(steps) + 1, 0.0);
  // Leaf payoffs run from spot*down^steps upward by factors of up^2.
  double price = spot * std::pow(down, steps);
  const double up2 = up * up;
  for (int i = 0; i <= steps; ++i, price *= up2) {
    values[static_cast<std::size_t>(i)] = std::max(price - strike, 0.0);
  }
  // Vector fast path: lanes are the tree nodes of one level. The update
  // is elementwise (both inputs loaded before the store, no reduction),
  // so the kernel is bit-identical to this loop; resolved per call so
  // HPAC_SIMD / simd::set_level changes apply.
  if (const kernels::BinomialInductFn induct = kernels::binomial_induct_fn()) {
    induct(values.data(), steps, discount, p_up, p_down);
  } else {
    for (int level = steps - 1; level >= 0; --level) {
      for (int i = 0; i <= level; ++i) {
        values[static_cast<std::size_t>(i)] =
            discount * (p_up * values[static_cast<std::size_t>(i) + 1] +
                        p_down * values[static_cast<std::size_t>(i)]);
      }
    }
  }
  return values[0];
}

BinomialOptions::BinomialOptions() : BinomialOptions(Params{}) {}

BinomialOptions::BinomialOptions(Params params) : params_(params) {
  Xoshiro256 rng(params_.seed);
  const std::uint64_t unique = params_.unique_options;
  std::vector<double> us(unique), uk(unique), ut(unique);
  for (std::uint64_t i = 0; i < unique; ++i) {
    us[i] = rng.uniform(20.0, 40.0);
    // Bounded moneyness keeps prices away from zero, so relative error
    // against near-worthless options stays meaningful.
    uk[i] = us[i] * rng.uniform(0.7, 1.3);
    ut[i] = rng.uniform(0.5, 2.0);
  }
  // The portfolio tiles a small set of distinct contracts, each instance
  // jittered by ~0.5% — a strike-ladder-style input where many rows are
  // near-duplicates. This is the "redundancy in the dataset" §4.1 credits
  // for Binomial Options being an ideal AC candidate: when the tiling
  // period divides the grid-stride, a thread re-prices near-identical
  // contracts and memoization answers them with sub-percent error.
  const std::uint64_t n = params_.num_options;
  spot_.resize(n);
  strike_.resize(n);
  expiry_.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t u = i % unique;
    spot_[i] = us[u] * (1.0 + 0.005 * rng.normal());
    strike_[i] = uk[u] * (1.0 + 0.005 * rng.normal());
    expiry_[i] = ut[u];
  }
}

harness::RunOutput BinomialOptions::run(const pragma::ApproxSpec& spec,
                                        std::uint64_t items_per_thread,
                                        const sim::DeviceConfig& device) {
  const std::uint64_t n = params_.num_options;
  offload::Device dev(device);
  approx::RegionExecutor executor(device);
  std::vector<double> prices(n, 0.0);

  harness::RunOutput output;
  {
    offload::MapScope map_in(dev, n * 3 * sizeof(double), offload::MapDir::kTo);
    offload::MapScope map_out(dev, n * sizeof(double), offload::MapDir::kFrom);

    approx::RegionBinding binding;
    binding.name = "binomial.tree_price";
    binding.in_dims = 3;
    binding.out_dims = 1;
    binding.in_bytes = 3 * sizeof(double);
    binding.out_bytes = sizeof(double);
    const auto gather_one = [this](std::uint64_t i, double* in) {
      in[0] = spot_[i];
      in[1] = strike_[i];
      in[2] = expiry_[i];
    };
    const auto price_one = [this](std::uint64_t i, double* out) {
      out[0] = tree_price(spot_[i], strike_[i], expiry_[i], params_.tree_steps, kRiskFree,
                          kVolatility);
    };
    const auto commit_one = [&prices](std::uint64_t i, const double* out) {
      prices[i] = out[0];
    };
    bind_gather(binding, gather_one);
    bind_accurate(binding, price_one);
    // Backward induction is O(steps^2 / 2) fused multiply-adds plus the
    // leaf setup; the cost model charges the canonical benchmark's tree
    // depth (see Params::modeled_tree_steps).
    const double steps = static_cast<double>(params_.modeled_tree_steps);
    bind_constant_cost(binding, 3.0 * steps * steps / 2.0 + 40.0);
    bind_commit(binding, commit_one);
    binding.independent_items = true;  // each item touches only prices[i]
    binding.commit_extents = {approx::audit::dense(prices.data())};

    const sim::LaunchConfig launch =
        sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
    launch_kernel(dev, executor, spec, binding, n, launch, &output.stats);
  }

  output.timeline = dev.timeline();
  output.qoi = std::move(prices);
  return output;
}

}  // namespace hpac::apps
