#include "highrpm/math/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "highrpm/math/float_eq.hpp"

namespace highrpm::math {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::uint64_t Rng::poisson(double lambda) {
  if (lambda < 0.0) throw std::invalid_argument("poisson: lambda < 0");
  if (is_zero(lambda)) return 0;
  if (lambda > 30.0) {
    // Normal approximation with continuity correction.
    const double v = normal(lambda, std::sqrt(lambda));
    return v < 0.5 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double l = std::exp(-lambda);
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > l);
  return k - 1;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate <= 0");
  double u;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx;
  permutation_into(idx, n);
  return idx;
}

void Rng::permutation_into(std::vector<std::size_t>& idx, std::size_t n) {
  idx.resize(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i-- > 1;) {
    const std::size_t j = uniform_index(i + 1);
    std::swap(idx[i], idx[j]);
  }
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  auto perm = permutation(n);
  perm.resize(k);
  return perm;
}

Rng Rng::split() { return Rng(next_u64()); }

Rng Rng::fork(std::uint64_t seed, std::uint64_t index) {
  // One SplitMix64 avalanche over a seed/index combination (the constructor
  // adds further mixing rounds). index+1 keeps fork(s, 0) != Rng(s).
  std::uint64_t x = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  return Rng(splitmix64(x));
}

}  // namespace highrpm::math
