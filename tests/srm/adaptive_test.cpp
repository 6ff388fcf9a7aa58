#include "srm/adaptive.h"

#include <gtest/gtest.h>

namespace srm {
namespace {

AdaptiveParams params() {
  AdaptiveParams p;
  p.enabled = true;
  return p;
}

TEST(AdaptiveTunerTest, StartsAtInitialValues) {
  AdaptiveTuner t(params(), 2.0, 2.0);
  EXPECT_DOUBLE_EQ(t.start(), 2.0);
  EXPECT_DOUBLE_EQ(t.width(), 2.0);
}

TEST(AdaptiveTunerTest, InitialValuesNotClamped) {
  // Fixed-parameter configurations may sit outside the adaptive bounds
  // (e.g. C2 = 0 for a deterministic chain); bounds bind adaptation only.
  AdaptiveTuner t(params(), 100.0, 0.1);
  EXPECT_DOUBLE_EQ(t.start(), 100.0);
  EXPECT_DOUBLE_EQ(t.width(), 0.1);
  t.end_period(5);
  t.adapt_on_timer_set(false);  // first adaptation pulls into bounds
  EXPECT_DOUBLE_EQ(t.start(), 2.0);
  EXPECT_DOUBLE_EQ(t.width(), 1.0);
}

TEST(AdaptiveTunerTest, NoAdaptationWithoutHistory) {
  AdaptiveTuner t(params(), 1.0, 2.0);
  t.adapt_on_timer_set(false);
  EXPECT_DOUBLE_EQ(t.start(), 1.0);
  EXPECT_DOUBLE_EQ(t.width(), 2.0);
}

TEST(AdaptiveTunerTest, TooManyDuplicatesWidensInterval) {
  AdaptiveTuner t(params(), 1.0, 2.0);
  t.end_period(5);  // ave_dups = 5 >= target 1
  t.adapt_on_timer_set(false);
  EXPECT_DOUBLE_EQ(t.start(), 1.1);   // +0.1
  EXPECT_DOUBLE_EQ(t.width(), 2.5);   // +0.5
}

TEST(AdaptiveTunerTest, HighDelayLowDupsShrinksWidth) {
  AdaptiveTuner t(params(), 1.0, 10.0);
  t.end_period(0);       // no duplicates
  t.record_delay(3.0);   // delay 3 RTT > target 1
  t.adapt_on_timer_set(false);
  EXPECT_DOUBLE_EQ(t.width(), 9.5);  // -0.5
  // Start also shrinks because duplicates are well under target.
  EXPECT_DOUBLE_EQ(t.start(), 0.95);
}

TEST(AdaptiveTunerTest, StartShrinkRequiresSenderOrLowDups) {
  AdaptiveTuner t(params(), 1.0, 10.0);
  // ave_dups around 0.8: below the duplicate target but not "already small".
  t.end_period(1);
  t.end_period(1);
  t.end_period(0);
  t.record_delay(3.0);
  const double dups = t.ave_dups();
  ASSERT_LT(dups, 0.9);
  ASSERT_GT(dups, 0.25);
  t.adapt_on_timer_set(/*was_recent_sender=*/false);
  EXPECT_DOUBLE_EQ(t.start(), 1.0);  // not a sender, dups not tiny: no shrink
  t.adapt_on_timer_set(/*was_recent_sender=*/true);
  EXPECT_DOUBLE_EQ(t.start(), 0.95);  // sender may shrink
}

TEST(AdaptiveTunerTest, NoChangeWhenWithinTargets) {
  AdaptiveTuner t(params(), 1.0, 2.0);
  t.end_period(0);
  t.record_delay(0.5);  // under the delay target
  t.adapt_on_timer_set(false);
  EXPECT_DOUBLE_EQ(t.start(), 1.0);
  EXPECT_DOUBLE_EQ(t.width(), 2.0);
}

TEST(AdaptiveTunerTest, OnSentShrinksStart) {
  AdaptiveTuner t(params(), 1.0, 2.0);
  t.on_sent();
  EXPECT_DOUBLE_EQ(t.start(), 0.95);
}

TEST(AdaptiveTunerTest, OnSentRespectsLowerBound) {
  AdaptiveTuner t(params(), 0.52, 2.0);
  t.on_sent();
  EXPECT_DOUBLE_EQ(t.start(), 0.5);
  t.on_sent();
  EXPECT_DOUBLE_EQ(t.start(), 0.5);
}

TEST(AdaptiveTunerTest, DuplicateFromFartherShrinksStart) {
  AdaptiveTuner t(params(), 1.0, 2.0);
  t.on_duplicate_from_farther(1.0, 2.0);  // 2 > 1.5 * 1
  EXPECT_DOUBLE_EQ(t.start(), 0.95);
}

TEST(AdaptiveTunerTest, DuplicateFromNearbyDoesNothing) {
  AdaptiveTuner t(params(), 1.0, 2.0);
  t.on_duplicate_from_farther(1.0, 1.2);  // 1.2 < 1.5
  EXPECT_DOUBLE_EQ(t.start(), 1.0);
}

TEST(AdaptiveTunerTest, WidthNeverExceedsMax) {
  AdaptiveTuner t(params(), 2.0, 199.8);
  t.end_period(10);
  t.adapt_on_timer_set(false);
  EXPECT_DOUBLE_EQ(t.width(), 200.0);
  EXPECT_DOUBLE_EQ(t.start(), 2.0);  // already at start_max
}

TEST(AdaptiveTunerTest, EwmaAveragesHistory) {
  AdaptiveTuner t(params(), 1.0, 2.0);
  t.end_period(4);
  EXPECT_DOUBLE_EQ(t.ave_dups(), 4.0);  // first sample seeds
  t.end_period(0);
  EXPECT_DOUBLE_EQ(t.ave_dups(), 3.0);  // 0.75*4 + 0.25*0
}

TEST(AdaptiveTunerTest, RepeatedCongestionConvergesUpThenRecovers) {
  // Sustained duplicates push the interval up; once duplicates stop and
  // delay is high, the interval comes back down.
  AdaptiveTuner t(params(), 0.5, 1.0);
  for (int i = 0; i < 30; ++i) {
    t.end_period(5);
    t.adapt_on_timer_set(false);
  }
  const double widened = t.width();
  EXPECT_GT(widened, 10.0);
  for (int i = 0; i < 200; ++i) {
    t.end_period(0);
    t.record_delay(5.0);
    t.adapt_on_timer_set(true);
  }
  EXPECT_LT(t.width(), widened / 2);
}

}  // namespace
}  // namespace srm
