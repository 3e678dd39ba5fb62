// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the framework (Poisson spike sources, PSO
// initialization, NoC injection jitter, synthetic workload generation) draws
// from an explicitly seeded Rng instance.  We do not use std::mt19937 through
// std::uniform_*_distribution because the distributions are
// implementation-defined and would make experiment outputs differ across
// standard libraries; instead the generator and all distributions here are
// fully specified.
#pragma once

#include <cstdint>
#include <vector>

namespace snnmap::util {

/// xoshiro256** by Blackman & Vigna, seeded via splitmix64.
/// Fast, 256-bit state, passes BigCrush; fully deterministic across platforms.
/// The raw draw and the uniform/bounded draws built directly on it are
/// defined here in the header so hot loops (the PSO swarm update draws ~10^8
/// per run) inline them instead of calling across translation units.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire stream is a pure function of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept { return next_if(true); }

  /// The value next() would return, advancing the stream only if `take`.
  /// Branch-free: a loop whose draw count depends on its data can compute a
  /// candidate draw unconditionally and commit it with the outcome.
  std::uint64_t next_if(bool take) noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    std::uint64_t s2 = s_[2] ^ s_[0];
    std::uint64_t s3 = s_[3] ^ s_[1];
    const std::uint64_t s1 = s_[1] ^ s2;
    const std::uint64_t s0 = s_[0] ^ s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    const std::uint64_t keep = static_cast<std::uint64_t>(take) - 1;
    s_[0] = s0 ^ ((s0 ^ s_[0]) & keep);
    s_[1] = s1 ^ ((s1 ^ s_[1]) & keep);
    s_[2] = s2 ^ ((s2 ^ s_[2]) & keep);
    s_[3] = s3 ^ ((s3 ^ s_[3]) & keep);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// The 53 high bits of next(), the integer behind uniform():
  /// uniform() == unit(uniform53()) == uniform53() * 2^-53 exactly.
  std::uint64_t uniform53() noexcept { return next() >> 11; }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return unit(uniform53()); }

  /// uniform()'s value for the 53-bit integer `u53` behind it.
  static double unit(std::uint64_t u53) noexcept {
    return static_cast<double>(u53) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n) using Lemire's unbiased bounded method.
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    return below_from(next(), n);
  }

  /// below(n) whose first draw `first` was already taken from this stream
  /// (e.g. through next_if); redraws, rarely, from the stream.  Returns 0
  /// without drawing for n == 0.
  std::uint64_t below_from(std::uint64_t first, std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m =
        static_cast<__uint128_t>(first) * static_cast<__uint128_t>(n);
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < n) [[unlikely]] {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        m = static_cast<__uint128_t>(next()) * static_cast<__uint128_t>(n);
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept;

  /// Standard normal deviate (Marsaglia polar method, cached pair).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Exponential deviate with the given rate (lambda), i.e. mean 1/lambda.
  double exponential(double rate) noexcept;

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each subsystem its
  /// own stream so adding draws in one module never perturbs another.
  Rng fork() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace snnmap::util
