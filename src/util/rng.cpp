#include "util/rng.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

namespace srm::util {

namespace {

// MT19937-64's upper mask: the top w - r = 64 - 31 bits of a word.
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;

}  // namespace

Mt19937_64::Mt19937_64(const std::uint32_t (&words)[kSeedWords]) {
  const auto word = [&words](std::size_t i) {
    return words[2 * i] | static_cast<std::uint64_t>(words[2 * i + 1]) << 32;
  };
  // std's guard: a state that is zero outside the first word's low 31 bits
  // would yield only zeros, so its first word becomes 1 << 63 instead.
  state_[0] = word(0);
  std::uint64_t live = state_[0] & kUpperMask;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    state_[i] = word(i);
    live |= state_[i];
  }
  if (live == 0) state_[0] = std::uint64_t{1} << 63;
}

void Mt19937_64::twist() {
  constexpr std::size_t n = kStateWords;
  constexpr std::size_t m = 156;
  const auto next = [](std::uint64_t cur, std::uint64_t succ,
                       std::uint64_t far) {
    const std::uint64_t y = (cur & kUpperMask) | (succ & ~kUpperMask);
    // 0 - (y & 1) is all ones or zero: the matrix term without a branch.
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
  };
  std::size_t k = 0;
  for (; k < n - m; ++k) {
    state_[k] = next(state_[k], state_[k + 1], state_[k + m]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = next(state_[k], state_[k + 1], state_[k + m - n]);
  }
  state_[n - 1] = next(state_[n - 1], state_[0], state_[m - 1]);
  next_ = 0;
}

SplitmixSeedSeq::SplitmixSeedSeq(std::uint64_t seed) {
  // Expand the seed through splitmix64 so that adjacent user seeds (0, 1, 2,
  // ...) still produce uncorrelated engine states.
  std::uint64_t s = seed;
  for (std::uint32_t& w : words_) {
    w = static_cast<std::uint32_t>(splitmix64(s));
  }
}

void SplitmixSeedSeq::generate(
    std::uint32_t (&out)[Mt19937_64::kSeedWords]) const {
  // [rand.util.seedseq] generate() with s = 4 input words and n = 624
  // output words, so t = 11, p = (n - t) / 2 = 306, q = p + t = 317 and
  // both passes run n steps.  Step k reads out[k - 1], which only step
  // k - 1 wrote, so `prev` carries it.  Each pass is split where k + q and
  // then k + p pass n, so no step computes or tests a wrapped index.
  constexpr std::size_t n = Mt19937_64::kSeedWords;
  constexpr std::size_t p = 306;
  constexpr std::size_t q = 317;
  static_assert(n == 624 && p == (n - 11) / 2 && q == p + 11);
  std::fill_n(out, n, 0x8b8b8b8bu);
  std::uint32_t prev = 0x8b8b8b8bu;  // out[n - 1] before the first step
  const auto mix = [](std::uint32_t x) { return x ^ (x >> 27); };
  const auto first = [&](std::size_t k, std::size_t kp, std::size_t kq,
                         std::uint32_t add) {
    const std::uint32_t r1 = 1664525u * mix(out[k] ^ out[kp] ^ prev);
    prev = r1 + add;
    out[kp] += r1;
    out[kq] += prev;
    out[k] = prev;
  };
  const auto second = [&](std::size_t k, std::size_t kp, std::size_t kq) {
    const std::uint32_t r3 = 1566083941u * mix(out[k] + out[kp] + prev);
    prev = r3 - static_cast<std::uint32_t>(k);
    out[kp] ^= r3;
    out[kq] ^= prev;
    out[k] = prev;
  };
  first(0, p, q, 4);  // step 0 adds s
  for (std::size_t k = 1; k <= 4; ++k) {
    first(k, k + p, k + q, static_cast<std::uint32_t>(k) + words_[k - 1]);
  }
  std::size_t k = 5;
  for (; k < n - q; ++k) first(k, k + p, k + q, static_cast<std::uint32_t>(k));
  for (; k < n - p; ++k) {
    first(k, k + p, k + q - n, static_cast<std::uint32_t>(k));
  }
  for (; k < n; ++k) {
    first(k, k + p - n, k + q - n, static_cast<std::uint32_t>(k));
  }
  for (k = 0; k < n - q; ++k) second(k, k + p, k + q);
  for (; k < n - p; ++k) second(k, k + p, k + q - n);
  for (; k < n; ++k) second(k, k + p - n, k + q - n);
}

void Rng::seed_engine() {
  std::uint32_t words[Mt19937_64::kSeedWords];
  SplitmixSeedSeq(seed_).generate(words);
  engine_ = std::make_unique<Mt19937_64>(words);
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
