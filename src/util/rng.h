// Deterministic random-number utilities.
//
// Every stochastic choice in the simulator flows through an Rng instance that
// is constructed from an explicit 64-bit seed, so that any experiment can be
// reproduced exactly by re-running with the same seed.  Child generators can
// be forked with independent streams (e.g. one per simulated host) without
// the streams being correlated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace srm::util {

// splitmix64: used to expand a user seed into well-distributed stream seeds.
// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Stateless keyed draws: a pure function of (seed, a, b, c) with no stream
// state to share or order-depend on.  Components whose draw order differs
// between the sequential and parallel kernels (e.g. per-member report
// jitter serviced from per-region timer wheels) key each draw by stable
// coordinates — (area, member slot, draw ordinal) — instead of consuming a
// shared Rng, so the value a given draw produces is identical no matter
// which worker, region or interleaving executes it.  Inline: every hop of
// a stochastic drop policy makes one.
inline std::uint64_t keyed_u64(std::uint64_t seed, std::uint64_t a,
                               std::uint64_t b, std::uint64_t c) {
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

// The same draw mapped to a double in [0, 1): the top 53 bits, the usual
// uniform-double construction.
inline double keyed_unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
  return static_cast<double>(keyed_u64(seed, a, b, c) >> 11) * 0x1.0p-53;
}

// MT19937-64 (Matsumoto & Nishimura), the engine behind every Rng.  Its
// output equals std::mt19937_64's built from the same seed words
// (tests/util/rng_test.cpp checks this).  Owning it lets the engine be
// built straight from its seed words and twist without a branch; it is
// the same 2.5 KB of state.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;
  // The 32-bit seed words the state is built from, two per state word.
  static constexpr std::size_t kSeedWords = 2 * kStateWords;

  // The state std::mt19937_64::seed(seq) builds once seq.generate() has
  // written `words`: state word i is words[2i] | words[2i + 1] << 32,
  // with std's guard against an all-zero state.
  explicit Mt19937_64(const std::uint32_t (&words)[kSeedWords]);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kStateWords) twist();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  void twist();

  std::uint64_t state_[kStateWords];
  std::size_t next_ = kStateWords;  // the first draw twists
};

// The seed words an Rng builds its engine from: std::seed_seq's generate()
// algorithm over the four 32-bit words splitmix64 expands a seed into, for
// the one output length the engine takes.  It equals the std::seed_seq of
// the same words (tests/util/rng_test.cpp checks this) at a fraction of
// the cost, which matters because every simulated host builds its own Rng.
class SplitmixSeedSeq {
 public:
  explicit SplitmixSeedSeq(std::uint64_t seed);

  void generate(std::uint32_t (&out)[Mt19937_64::kSeedWords]) const;

 private:
  std::uint32_t words_[4] = {};
};

// A seeded random source: an Mt19937_64 with the handful of distributions
// the simulator needs, drawn through std's distributions so that every
// value equals the one a std::mt19937_64 would give.  Copyable (copies the
// full state).
// The engine is allocated and seeded on the first draw, so a generator that
// is built but never drawn from (a disabled component's fork, such as a
// member's flat-session scheduler under hierarchical reporting) costs two
// words instead of the engine's 2.5 KB; the stream is the same either way.
// A moved-from generator restarts its stream from the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {}

  Rng(const Rng& other)
      : seed_(other.seed_),
        engine_(other.engine_
                    ? std::make_unique<Mt19937_64>(*other.engine_)
                    : nullptr) {}
  Rng& operator=(const Rng& other) {
    if (this != &other) *this = Rng(other);
    return *this;
  }
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

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
  Mt19937_64& engine() {
    if (!engine_) seed_engine();
    return *engine_;
  }
  void seed_engine();

  std::uint64_t seed_;
  std::unique_ptr<Mt19937_64> engine_;  // null until the first draw
};

}  // namespace srm::util
