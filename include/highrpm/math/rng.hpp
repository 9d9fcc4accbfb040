// Deterministic, fast pseudo-random generation.
//
// Everything stochastic in HighRPM (simulator noise, sampler draws, model
// initialization, bootstrap resampling) goes through Rng so that runs are
// reproducible from a single seed. The engine is xoshiro256**, seeded via
// SplitMix64 per the reference recommendation.
#pragma once

#include <cstdint>
#include <vector>

namespace highrpm::math {

/// xoshiro256** engine with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via Box-Muller (cached spare deviate).
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Poisson-distributed count (Knuth for small lambda, normal approx above 30).
  std::uint64_t poisson(double lambda);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Exponential with given rate.
  double exponential(double rate);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);
  /// permutation(n) into a caller-owned vector (resized to n, reusing its
  /// allocation): the same draws, so the same order.
  void permutation_into(std::vector<std::size_t>& idx, std::size_t n);
  /// k indices sampled without replacement from [0, n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Independent child generator (for giving submodules their own stream).
  Rng split();

  /// Deterministic per-task stream: the generator for task `index` of a job
  /// seeded with `seed`. Unlike split(), fork is a pure function — parallel
  /// workers can derive their streams independently and in any order, which
  /// is what keeps same-seed serial and parallel runs bit-identical.
  static Rng fork(std::uint64_t seed, std::uint64_t index);

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace highrpm::math
