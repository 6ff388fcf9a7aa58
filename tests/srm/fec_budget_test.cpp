// ParityBudgetController: the deterministic hysteresis machine that picks
// K per generation.  Everything here is count-based — the tests drive seal
// points by hand and assert the exact K sequence, which is the property
// that keeps --pdes-verify bit-identical with --fec on.
#include "srm/fec/budget.h"

#include <gtest/gtest.h>

namespace srm::fec {
namespace {

FecConfig cfg() {
  FecConfig c;
  c.max_k = 4;
  c.initial_k = 1;
  c.decay_after_quiet = 3;
  return c;
}

TEST(ParityBudgetTest, StartsAtInitialK) {
  EXPECT_EQ(ParityBudgetController(cfg()).current_k(), 1u);
  FecConfig c = cfg();
  c.initial_k = 0;
  EXPECT_EQ(ParityBudgetController(c).current_k(), 0u);
}

TEST(ParityBudgetTest, EvidenceAtThresholdRaisesByOne) {
  ParityBudgetController b(cfg());
  b.note_loss_evidence(2);  // == kRaiseThreshold
  EXPECT_EQ(b.on_generation_sealed(), 2u);
  EXPECT_EQ(b.current_k(), 2u);
  // Below threshold: no raise, but the evidence still clears the quiet
  // streak (a lossy generation is not a quiet one).
  b.note_loss_evidence(1);
  EXPECT_EQ(b.on_generation_sealed(), 2u);
}

TEST(ParityBudgetTest, RaiseClampsAtMaxK) {
  ParityBudgetController b(cfg());
  for (int i = 0; i < 10; ++i) {
    b.note_loss_evidence(5);
    b.on_generation_sealed();
  }
  EXPECT_EQ(b.current_k(), 4u);
}

TEST(ParityBudgetTest, EvidenceIsPerGeneration) {
  ParityBudgetController b(cfg());
  b.note_loss_evidence(1);
  EXPECT_EQ(b.evidence_pending(), 1u);
  b.on_generation_sealed();
  EXPECT_EQ(b.evidence_pending(), 0u);  // does not carry over
  b.note_loss_evidence(1);
  EXPECT_EQ(b.on_generation_sealed(), 1u);  // 1 < threshold both times
}

TEST(ParityBudgetTest, DecaysToZeroOnQuietLinks) {
  FecConfig c = cfg();
  c.initial_k = 2;
  ParityBudgetController b(c);
  // decay_after_quiet = 3: two quiet seals keep K, the third decays it.
  EXPECT_EQ(b.on_generation_sealed(), 2u);
  EXPECT_EQ(b.on_generation_sealed(), 2u);
  EXPECT_EQ(b.on_generation_sealed(), 1u);
  EXPECT_EQ(b.on_generation_sealed(), 1u);
  EXPECT_EQ(b.on_generation_sealed(), 1u);
  EXPECT_EQ(b.on_generation_sealed(), 0u);  // all the way to "no parity"
  // And it stays there: quiet links pay zero FEC overhead.
  EXPECT_EQ(b.on_generation_sealed(), 0u);
  EXPECT_EQ(b.on_generation_sealed(), 0u);
}

TEST(ParityBudgetTest, AnyEvidenceRearmsFromZero) {
  FecConfig c = cfg();
  c.initial_k = 0;
  ParityBudgetController b(c);
  // A single piece of evidence (below kRaiseThreshold) steps 0 -> 1: a
  // quiet link that just lost something re-arms the cheap XOR tier.
  b.note_loss_evidence(1);
  EXPECT_EQ(b.on_generation_sealed(), 1u);
}

TEST(ParityBudgetTest, EvidenceClearsQuietStreak) {
  FecConfig c = cfg();
  c.initial_k = 1;
  c.decay_after_quiet = 2;
  ParityBudgetController b(c);
  EXPECT_EQ(b.on_generation_sealed(), 1u);  // quiet 1/2
  b.note_loss_evidence(1);                  // resets the streak
  EXPECT_EQ(b.on_generation_sealed(), 1u);
  EXPECT_EQ(b.on_generation_sealed(), 1u);  // quiet 1/2 again
  EXPECT_EQ(b.on_generation_sealed(), 0u);  // quiet 2/2 -> decay
}

TEST(ParityBudgetTest, BurstEpochFloorsImmediately) {
  FecConfig c = cfg();
  c.initial_k = 0;
  ParityBudgetController b(c);
  b.set_burst_epoch(true);
  // The next generation already needs the protection, before any seal.
  EXPECT_EQ(b.current_k(), 2u);
  EXPECT_TRUE(b.burst_epoch_active());
}

TEST(ParityBudgetTest, DecayClampsAtBurstFloorDuringEpoch) {
  FecConfig c = cfg();
  c.initial_k = 4;
  c.decay_after_quiet = 1;
  ParityBudgetController b(c);
  b.set_burst_epoch(true);
  EXPECT_EQ(b.on_generation_sealed(), 3u);
  EXPECT_EQ(b.on_generation_sealed(), 2u);
  EXPECT_EQ(b.on_generation_sealed(), 2u);  // floored at kBurstFloor
  EXPECT_EQ(b.on_generation_sealed(), 2u);
  // Epoch ends: the quiet-decay path resumes down to zero.
  b.set_burst_epoch(false);
  EXPECT_EQ(b.on_generation_sealed(), 1u);
  EXPECT_EQ(b.on_generation_sealed(), 0u);
}

TEST(ParityBudgetTest, BurstFloorClampedToMaxK) {
  FecConfig c = cfg();
  c.max_k = 1;  // below kBurstFloor
  ParityBudgetController b(c);
  b.set_burst_epoch(true);
  EXPECT_EQ(b.current_k(), 1u);
  b.note_loss_evidence(10);
  EXPECT_EQ(b.on_generation_sealed(), 1u);  // raises clamp to max_k too
}

TEST(ParityBudgetTest, RaisesStillWorkDuringBurst) {
  ParityBudgetController b(cfg());
  b.set_burst_epoch(true);  // floors to 2
  b.note_loss_evidence(2);
  EXPECT_EQ(b.on_generation_sealed(), 3u);
  b.note_loss_evidence(2);
  EXPECT_EQ(b.on_generation_sealed(), 4u);
}

}  // namespace
}  // namespace srm::fec
