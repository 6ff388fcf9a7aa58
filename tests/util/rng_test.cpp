#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
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

TEST(RngTest, SeedSequenceMatchesStdSeedSeq) {
  // Small seeds as the harnesses use them, then splitmix64-spread ones.
  std::uint64_t spread = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const std::uint64_t seed = i < 5000 ? i : splitmix64(spread);
    SplitmixSeedSeq fast(seed);
    const std::mt19937_64 got(fast);
    ASSERT_TRUE(got == std_seeded_engine(seed)) << "seed " << seed;
  }
  // Output lengths on both sides of each of the algorithm's thresholds.
  for (std::size_t n : {5, 6, 7, 38, 39, 67, 68, 622, 623, 624, 999}) {
    const std::vector<std::uint32_t> words = seed_words(77);
    std::seed_seq ref(words.begin(), words.end());
    std::vector<std::uint32_t> want(n), got(n);
    ref.generate(want.begin(), want.end());
    SplitmixSeedSeq(77).generate(got.data(), got.data() + n);
    EXPECT_EQ(got, want) << "n = " << n;
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

}  // namespace
}  // namespace srm::util
