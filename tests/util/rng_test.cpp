#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace srm::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, AdjacentSeedsUncorrelatedInUniform) {
  // splitmix64 expansion should decorrelate seeds 0 and 1.
  Rng a(0), b(1);
  double corr_hits = 0;
  for (int i = 0; i < 1000; ++i) {
    const double x = a.uniform(0, 1);
    const double y = b.uniform(0, 1);
    if (std::abs(x - y) < 0.01) ++corr_hits;
  }
  EXPECT_LT(corr_hits, 60);  // ~2% expected for independent streams
}

TEST(RngTest, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformDegenerateIntervalReturnsLo) {
  Rng r(7);
  EXPECT_DOUBLE_EQ(r.uniform(3.0, 3.0), 3.0);
}

TEST(RngTest, UniformRejectsInvertedBounds) {
  Rng r(7);
  EXPECT_THROW(r.uniform(5.0, 2.0), std::invalid_argument);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform(0.0, 10.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, ChanceExtremes) {
  Rng r(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng r(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng r(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng r(9);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng r(13);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = r.sample_without_replacement(20, 10);
    ASSERT_EQ(s.size(), 10u);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 10u);
    for (std::size_t v : s) EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleAllElements) {
  Rng r(13);
  const auto s = r.sample_without_replacement(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(RngTest, SampleRejectsOverdraw) {
  Rng r(13);
  EXPECT_THROW(r.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  // Parent and child should produce different streams.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, IndexStaysInRange) {
  Rng r(17);
  for (int i = 0; i < 500; ++i) EXPECT_LT(r.index(7), 7u);
  EXPECT_THROW(r.index(0), std::invalid_argument);
}

TEST(KeyedDrawTest, DeterministicAndKeySensitive) {
  // Stateless draws: same key -> same value, any key component change ->
  // (almost surely) a different one.  This is what lets the hierarchical
  // session layer draw jitter without a shared RNG stream (ARCHITECTURE.md
  // §12 determinism argument).
  EXPECT_EQ(keyed_u64(1, 2, 3, 4), keyed_u64(1, 2, 3, 4));
  EXPECT_NE(keyed_u64(1, 2, 3, 4), keyed_u64(1, 2, 3, 5));
  EXPECT_NE(keyed_u64(1, 2, 3, 4), keyed_u64(1, 2, 4, 4));
  EXPECT_NE(keyed_u64(1, 2, 3, 4), keyed_u64(1, 3, 3, 4));
  EXPECT_NE(keyed_u64(1, 2, 3, 4), keyed_u64(2, 2, 3, 4));
}

TEST(KeyedDrawTest, UnitIsInHalfOpenIntervalAndRoughlyUniform) {
  double sum = 0.0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const double u = keyed_unit(7, 1, i, i * 31);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 4096.0, 0.5, 0.02);
}

TEST(KeyedDrawTest, SaltedStreamsAreIndependent) {
  // The stochastic drop policies carve independent streams out of one seed
  // by salting the first key component (kSaltRandomDrop / kSaltGeLoss /
  // kSaltGeTransition in net/drop_policy.cpp).  Walking one component with
  // the others fixed must give per-salt streams that look pairwise
  // independent: XORing paired draws should flip about half the 64 bits.
  const int n = 2048;
  long long diff_bits = 0;
  int collisions = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t a = keyed_u64(99, 1, i, 7);
    const std::uint64_t b = keyed_u64(99, 2, i, 7);
    if (a == b) ++collisions;
    std::uint64_t x = a ^ b;
    while (x != 0) {
      x &= x - 1;
      ++diff_bits;
    }
  }
  EXPECT_EQ(collisions, 0);
  const double mean_bits = static_cast<double>(diff_bits) / n;
  EXPECT_NEAR(mean_bits, 32.0, 1.0);  // ~N(32, 4): 1.0 is ~11 sigma of mean
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng r(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto reshuffled = v;
  std::sort(reshuffled.begin(), reshuffled.end());
  EXPECT_EQ(reshuffled, sorted);
}

// The four splitmix64 words a seed expands into.
std::vector<std::uint32_t> seed_words(std::uint64_t seed) {
  std::vector<std::uint32_t> words(4);
  for (std::uint32_t& w : words) {
    w = static_cast<std::uint32_t>(splitmix64(seed));
  }
  return words;
}

// Reference: the engine std::seed_seq seeds from those words, whose stream
// every Rng(seed) must produce.
std::mt19937_64 std_seeded_engine(std::uint64_t seed) {
  const std::vector<std::uint32_t> words = seed_words(seed);
  std::seed_seq seq(words.begin(), words.end());
  return std::mt19937_64(seq);
}

// Small seeds as the harnesses use them, then splitmix64-spread ones.
std::vector<std::uint64_t> test_seeds(std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  std::uint64_t spread = 0;
  for (std::size_t i = 0; i < count; ++i) {
    seeds[i] = i < count / 2 ? i : splitmix64(spread);
  }
  return seeds;
}

TEST(RngTest, SeedSequenceMatchesStdSeedSeq) {
  for (std::uint64_t seed : test_seeds(10000)) {
    const std::vector<std::uint32_t> words = seed_words(seed);
    std::seed_seq ref(words.begin(), words.end());
    std::uint32_t want[Mt19937_64::kSeedWords];
    std::uint32_t got[Mt19937_64::kSeedWords];
    ref.generate(std::begin(want), std::end(want));
    SplitmixSeedSeq(seed).generate(got);
    ASSERT_TRUE(std::equal(std::begin(got), std::end(got), std::begin(want)))
        << "seed " << seed;
  }
}

Mt19937_64 owned_engine(std::uint64_t seed) {
  std::uint32_t words[Mt19937_64::kSeedWords];
  SplitmixSeedSeq(seed).generate(words);
  return Mt19937_64(words);
}

TEST(RngTest, OwnedEngineMatchesStdEngine) {
  // 1000 draws span three twists (draws 1, 313 and 625 twist).
  static_assert(sizeof(Mt19937_64) == sizeof(std::mt19937_64));
  for (std::uint64_t seed : test_seeds(10000)) {
    Mt19937_64 got = owned_engine(seed);
    std::mt19937_64 want = std_seeded_engine(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(got(), want()) << "seed " << seed << " draw " << i;
    }
  }
}

// A seed sequence that writes fixed words, to reach the all-zero guard.
struct FixedWords {
  using result_type = std::uint32_t;
  std::uint32_t words[Mt19937_64::kSeedWords] = {};
  template <typename It>
  void generate(It begin, It end) const {
    std::copy(std::begin(words), std::begin(words) + (end - begin), begin);
  }
};

TEST(RngTest, OwnedEngineKeepsStdZeroStateGuard) {
  // All zero, zero but the first word's low 31 bits (both guarded), and
  // one bit above them or in a later word (neither guarded).
  std::vector<FixedWords> cases(5);
  cases[1].words[0] = 0x7FFFFFFF;
  cases[2].words[0] = 0x80000000;
  cases[3].words[1] = 1;
  cases[4].words[Mt19937_64::kSeedWords - 1] = 1;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    Mt19937_64 got(cases[c].words);
    std::mt19937_64 want(cases[c]);
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(got(), want()) << "case " << c << " draw " << i;
    }
  }
}

// Every Rng method, mirrored over std's distributions and the std engine
// that Rng(seed) must reproduce.
struct StdReference {
  std::mt19937_64 engine;

  double uniform(double lo, double hi) {
    return lo == hi ? lo
                    : std::uniform_real_distribution<double>(lo, hi)(engine);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
  }
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine);
  }
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[index(i)]);
  }
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::size_t>(uniform_int(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
};

// Draw `i` of a mixed sequence: one method per step, arguments varied
// with the step, every result checked against the reference.
void expect_same_draw(Rng& got, StdReference& want, int i) {
  const double x = 0.25 * (i % 13);
  const auto n = static_cast<std::size_t>(1 + i % 37);
  switch (i % 10) {
    case 0:
      ASSERT_EQ(got.uniform(-x, x * x), want.uniform(-x, x * x)) << i;
      break;
    case 1:
      ASSERT_EQ(got.uniform_int(-i, 3 * i), want.uniform_int(-i, 3 * i)) << i;
      ASSERT_EQ(got.uniform_int(INT64_MIN, INT64_MAX),
                want.uniform_int(INT64_MIN, INT64_MAX))
          << i;
      break;
    case 2:
      ASSERT_EQ(got.chance(x / 2.0 - 0.5), want.chance(x / 2.0 - 0.5)) << i;
      break;
    case 3:
      ASSERT_EQ(got.exponential(x + 0.1), want.exponential(x + 0.1)) << i;
      break;
    case 4:
      ASSERT_EQ(got.index(n), want.index(n)) << i;
      break;
    case 5: {
      std::vector<int> a(n), b(n);
      for (std::size_t j = 0; j < n; ++j) a[j] = b[j] = static_cast<int>(j);
      got.shuffle(a);
      want.shuffle(b);
      ASSERT_EQ(a, b) << i;
      break;
    }
    case 6:
      ASSERT_EQ(got.sample_without_replacement(n, n / 2),
                want.sample_without_replacement(n, n / 2))
          << i;
      break;
    case 7: {
      Rng child = got.fork();
      std::mt19937_64 want_child = std_seeded_engine(want.engine());
      for (int j = 0; j < 3; ++j) ASSERT_EQ(child.next_u64(), want_child());
      break;
    }
    default:
      ASSERT_EQ(got.next_u64(), want.engine()) << i;
      break;
  }
}

TEST(RngTest, EveryMethodMatchesStdDistributions) {
  for (std::uint64_t seed : test_seeds(200)) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    StdReference want{std_seeded_engine(seed)};
    for (int i = 0; i < 400; ++i) {
      ASSERT_NO_FATAL_FAILURE(expect_same_draw(rng, want, i));
    }
    // A copy and a move taken after 400 draws continue the stream apart,
    // and the moved-from generator restarts it from the seed.
    Rng copy = rng;
    StdReference want_copy = want;
    Rng moved = std::move(rng);
    StdReference want_restart{std_seeded_engine(seed)};
    for (int i = 400; i < 500; ++i) {
      ASSERT_NO_FATAL_FAILURE(expect_same_draw(moved, want, i));
      ASSERT_NO_FATAL_FAILURE(expect_same_draw(copy, want_copy, i + 3));
      ASSERT_NO_FATAL_FAILURE(expect_same_draw(rng, want_restart, i + 7));
    }
  }
}

TEST(RngTest, LazySeedingKeepsEveryStream) {
  // Copied before any draw: both copies, and the original, replay the
  // eagerly seeded stream.
  Rng original(1234);
  Rng copy = original;
  std::mt19937_64 want = std_seeded_engine(1234);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t expected = want();
    ASSERT_EQ(original.next_u64(), expected) << i;
    ASSERT_EQ(copy.next_u64(), expected) << i;
  }
  // Forked before any draw: fork() still consumes the parent's first
  // draw, so parent and child streams are unchanged.
  Rng parent(99);
  Rng child = parent.fork();
  std::mt19937_64 want_parent = std_seeded_engine(99);
  std::mt19937_64 want_child = std_seeded_engine(want_parent());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(child.next_u64(), want_child()) << i;
    ASSERT_EQ(parent.next_u64(), want_parent()) << i;
  }
}

TEST(RngTest, CopiesAndMovesContinueTheStreamIndependently) {
  std::mt19937_64 want = std_seeded_engine(2024);
  std::vector<std::uint64_t> stream(300);
  for (std::uint64_t& v : stream) v = want();

  Rng original(2024);
  Rng before = original;  // copied before the first draw
  Rng moved_before = Rng(original);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(original.next_u64(), stream[i]);
  Rng after = original;  // copied after 100 draws
  Rng assigned(7);
  assigned = original;
  Rng source = original;
  Rng moved_after = std::move(source);

  // Interleaved draws: each generator continues from where it was taken,
  // and drawing from one leaves every other one's stream untouched.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(after.next_u64(), stream[100 + i]) << i;
    ASSERT_EQ(before.next_u64(), stream[i]) << i;
    ASSERT_EQ(moved_after.next_u64(), stream[100 + i]) << i;
    ASSERT_EQ(moved_before.next_u64(), stream[i]) << i;
    ASSERT_EQ(assigned.next_u64(), stream[100 + i]) << i;
  }
  for (int i = 100; i < 300; ++i) ASSERT_EQ(original.next_u64(), stream[i]);
}

TEST(RngTest, UndrawnGeneratorCostsTwoWords) {
  // The engine lives behind a pointer until the first draw, so a fork that
  // is never drawn from (a member's flat-session scheduler under the
  // hierarchy) holds a seed and a null pointer, not 2.5 KB of state.
  EXPECT_LE(sizeof(Rng), 2 * sizeof(void*));
}

}  // namespace
}  // namespace srm::util
