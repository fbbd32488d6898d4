#pragma once

#include <array>
#include <cstdint>

namespace hpac {

/// SplitMix64 — used to seed Xoshiro256** and as a cheap stateless mixer.
/// Deterministic across platforms; all workload generators in this project
/// derive their streams from fixed seeds so experiments are reproducible.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 (Blackman & Vigna). Fast, high-quality, deterministic
/// generator used by every synthetic workload generator in `hpac::apps`.
///
/// We implement our own generator instead of `std::mt19937` so that the
/// produced workloads are identical across standard libraries, which keeps
/// recorded experiment outputs comparable between toolchains.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  std::uint64_t next();
  std::uint64_t operator()() { return next(); }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via Box–Muller (uses two uniforms per pair; caches one).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hpac
