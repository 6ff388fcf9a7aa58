#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace srm::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t keyed_u64(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c) {
  // Fold each key through one splitmix64 step; the chained state makes the
  // mapping sensitive to every coordinate independently.
  std::uint64_t state = seed;
  std::uint64_t h = splitmix64(state);
  state ^= a;
  h ^= splitmix64(state);
  state ^= b;
  h ^= splitmix64(state);
  state ^= c;
  h ^= splitmix64(state);
  return h;
}

double keyed_unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  // Top 53 bits -> [0, 1), the usual uniform-double construction.
  return static_cast<double>(keyed_u64(seed, a, b, c) >> 11) * 0x1.0p-53;
}

SplitmixSeedSeq::SplitmixSeedSeq(std::uint64_t seed) {
  // Expand the seed through splitmix64 so that adjacent user seeds (0, 1, 2,
  // ...) still produce uncorrelated mt19937_64 states.
  std::uint64_t s = seed;
  for (std::uint32_t& w : words_) {
    w = static_cast<std::uint32_t>(splitmix64(s));
  }
}

void SplitmixSeedSeq::generate(std::uint32_t* begin,
                               std::uint32_t* end) const {
  // [rand.util.seedseq] generate() with s = 4 input words.  Every index the
  // standard writes "mod n" stays below 2n here, so one conditional
  // subtraction replaces the division.
  constexpr std::size_t s = 4;
  const std::size_t n = static_cast<std::size_t>(end - begin);
  assert(n > s);  // so m = max(s + 1, n) = n; mt19937_64 asks for 624
  const std::size_t t = n >= 623  ? 11
                        : n >= 68 ? 7
                        : n >= 39 ? 5
                        : n >= 7  ? 3
                                  : (n - 1) / 2;
  const std::size_t p = (n - t) / 2;
  const std::size_t q = p + t;
  const auto wrap = [n](std::size_t i) { return i < n ? i : i - n; };
  const auto mix = [](std::uint32_t x) { return x ^ (x >> 27); };
  std::fill(begin, end, 0x8b8b8b8bu);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t kp = wrap(k + p);
    const std::size_t kq = wrap(k + q);
    const std::size_t km = k == 0 ? n - 1 : k - 1;
    const std::uint32_t r1 = 1664525u * mix(begin[k] ^ begin[kp] ^ begin[km]);
    std::uint32_t r2 = r1 + static_cast<std::uint32_t>(k);
    if (k == 0) {
      r2 += s;
    } else if (k <= s) {
      r2 += words_[k - 1];
    }
    begin[kp] += r1;
    begin[kq] += r2;
    begin[k] = r2;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t kp = wrap(k + p);
    const std::size_t kq = wrap(k + q);
    const std::size_t km = k == 0 ? n - 1 : k - 1;
    const std::uint32_t r3 =
        1566083941u * mix(begin[k] + begin[kp] + begin[km]);
    const std::uint32_t r4 = r3 - static_cast<std::uint32_t>(k);
    begin[kp] ^= r3;
    begin[kq] ^= r4;
    begin[k] = r4;
  }
}

Rng Rng::fork() { return Rng(engine()()); }

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine());
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine());
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("Rng::exponential: mean <= 0");
  return std::exponential_distribution<double>(1.0 / mean)(engine());
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("Rng::sample_without_replacement: k > n");
  }
  // Partial Fisher-Yates over an index vector: O(n) space, O(n + k) time.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::uint64_t Rng::next_u64() { return engine()(); }

}  // namespace srm::util
