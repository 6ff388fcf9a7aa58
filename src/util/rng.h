// Deterministic random-number utilities.
//
// Every stochastic choice in the simulator flows through an Rng instance that
// is constructed from an explicit 64-bit seed, so that any experiment can be
// reproduced exactly by re-running with the same seed.  Child generators can
// be forked with independent streams (e.g. one per simulated host) without
// the streams being correlated.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace srm::util {

// splitmix64: used to expand a user seed into well-distributed stream seeds.
// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014.
std::uint64_t splitmix64(std::uint64_t& state);

// Stateless keyed draws: a pure function of (seed, a, b, c) with no stream
// state to share or order-depend on.  Components whose draw order differs
// between the sequential and parallel kernels (e.g. per-member report
// jitter serviced from per-region timer wheels) key each draw by stable
// coordinates — (area, member slot, draw ordinal) — instead of consuming a
// shared Rng, so the value a given draw produces is identical no matter
// which worker, region or interleaving executes it.
std::uint64_t keyed_u64(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c);

// The same draw mapped to a double in [0, 1).
double keyed_unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c);

// The seed sequence an Rng seeds its engine from: std::seed_seq's
// generate() algorithm over the four 32-bit words splitmix64 expands a seed
// into, with the algorithm's index arithmetic done without division.  An
// engine seeded from it equals one seeded from the std::seed_seq of the
// same words (tests/util/rng_test.cpp checks this), at a fraction of the
// cost, which matters because every simulated host builds its own Rng.
class SplitmixSeedSeq {
 public:
  using result_type = std::uint32_t;

  explicit SplitmixSeedSeq(std::uint64_t seed);

  // Fills [begin, end), which must hold more than four words.
  void generate(std::uint32_t* begin, std::uint32_t* end) const;

 private:
  std::uint32_t words_[4] = {};
};

// A seeded random source.  Thin wrapper over mt19937_64 with the handful of
// distributions the simulator needs.  Copyable (copies the full state).
// The engine is seeded on the first draw, so a generator that is built but
// never drawn from (a disabled component's fork) costs no seeding; the
// stream is the same either way.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {}

  // A new generator whose stream is independent of this one; deterministic
  // given this generator's current state.
  Rng fork();

  // Uniform real in [lo, hi).  Requires lo <= hi; returns lo when lo == hi.
  double uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Bernoulli trial with probability p of returning true.
  bool chance(double p);

  // Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  // k distinct values sampled uniformly from [0, n); k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Picks a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t n);

  std::uint64_t next_u64();

 private:
  std::mt19937_64& engine() {
    if (!seeded_) {
      SplitmixSeedSeq seq(seed_);
      engine_.seed(seq);
      seeded_ = true;
    }
    return engine_;
  }

  std::uint64_t seed_;
  bool seeded_ = false;
  std::mt19937_64 engine_;
};

}  // namespace srm::util
