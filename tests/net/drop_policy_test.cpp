#include "net/drop_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "srm/messages.h"

namespace srm::net {
namespace {

class Tagged : public Message {
 public:
  explicit Tagged(int tag) : tag_(tag) {}
  int tag() const { return tag_; }
  std::string describe() const override { return "tagged"; }

 private:
  int tag_;
};

Packet packet_with_tag(int tag) {
  Packet p;
  p.payload = std::make_shared<Tagged>(tag);
  return p;
}

bool tag_is(const Packet& p, int tag) {
  const auto* t = dynamic_cast<const Tagged*>(p.payload.get());
  return t != nullptr && t->tag() == tag;
}

TEST(NoDropTest, NeverDrops) {
  NoDrop nd;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(nd.should_drop(packet_with_tag(i), HopContext{0, 1, 2}));
  }
}

TEST(ScriptedLinkDropTest, DropsOnlyMatchingLinkDirection) {
  ScriptedLinkDrop d(1, 2, [](const Packet& p) { return tag_is(p, 7); });
  // Wrong direction: not dropped.
  EXPECT_FALSE(d.should_drop(packet_with_tag(7), HopContext{0, 2, 1}));
  // Wrong link: not dropped.
  EXPECT_FALSE(d.should_drop(packet_with_tag(7), HopContext{0, 3, 4}));
  // Wrong payload: not dropped.
  EXPECT_FALSE(d.should_drop(packet_with_tag(8), HopContext{0, 1, 2}));
  // Match: dropped.
  EXPECT_TRUE(d.should_drop(packet_with_tag(7), HopContext{0, 1, 2}));
  EXPECT_EQ(d.drops_so_far(), 1u);
}

TEST(ScriptedLinkDropTest, HonorsMaxDrops) {
  ScriptedLinkDrop d(0, 1, [](const Packet&) { return true; },
                     /*max_drops=*/2);
  EXPECT_TRUE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
  EXPECT_TRUE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
  EXPECT_FALSE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
  EXPECT_EQ(d.drops_so_far(), 2u);
}

TEST(ScriptedLinkDropTest, RearmResets) {
  ScriptedLinkDrop d(0, 1, [](const Packet&) { return true; });
  EXPECT_TRUE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
  EXPECT_FALSE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
  d.rearm();
  EXPECT_TRUE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
}

TEST(ScriptedLinkDropTest, RejectsNullPredicate) {
  EXPECT_THROW(ScriptedLinkDrop(0, 1, nullptr), std::invalid_argument);
}

TEST(RandomDropTest, RateZeroNeverDrops) {
  RandomDrop d(0.0, 1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1, i}));
  }
}

TEST(RandomDropTest, RateOneAlwaysDrops) {
  RandomDrop d(1.0, 1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1, i}));
  }
}

TEST(RandomDropTest, ApproximatesRate) {
  RandomDrop d(0.3, 42);
  int drops = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    if (d.should_drop(packet_with_tag(0), HopContext{0, 0, 1, i})) ++drops;
  }
  EXPECT_NEAR(drops / 10000.0, 0.3, 0.03);
}

TEST(RandomDropTest, DecisionIsPureFunctionOfKey) {
  // The verdict for (seed, edge, ordinal) does not depend on consult order
  // or on what other hops were consulted — the PDES-safety property.
  RandomDrop a(0.5, 7);
  RandomDrop b(0.5, 7);
  // a consults ordinals ascending; b descending, interleaved with noise on
  // another link.
  std::vector<bool> fwd;
  for (std::uint64_t i = 0; i < 200; ++i) {
    fwd.push_back(a.should_drop(packet_with_tag(0), HopContext{3, 0, 1, i}));
  }
  for (std::uint64_t i = 200; i-- > 0;) {
    b.should_drop(packet_with_tag(0), HopContext{9, 5, 6, i});
    EXPECT_EQ(b.should_drop(packet_with_tag(0), HopContext{3, 0, 1, i}),
              fwd[i]);
  }
}

TEST(RandomDropTest, DirectionsAndLinksAreIndependentStreams) {
  RandomDrop d(0.5, 11);
  int forward = 0, reverse = 0, other = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    if (d.should_drop(packet_with_tag(0), HopContext{2, 0, 1, i})) ++forward;
    if (d.should_drop(packet_with_tag(0), HopContext{2, 1, 0, i})) ++reverse;
    if (d.should_drop(packet_with_tag(0), HopContext{3, 0, 1, i})) ++other;
  }
  // All three see the same ordinals but draw from distinct streams; at rate
  // 0.5 over 400 trials identical streams would match exactly, independent
  // ones differ with overwhelming probability.
  EXPECT_NE(forward, 0);
  EXPECT_NE(forward, 400);
  EXPECT_TRUE(forward != reverse || forward != other);
}

TEST(RandomDropTest, RestrictToLimitsLink) {
  RandomDrop d(1.0, 1);
  d.restrict_to(3, 4);
  EXPECT_FALSE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
  EXPECT_FALSE(d.should_drop(packet_with_tag(0), HopContext{0, 4, 3}));
  EXPECT_TRUE(d.should_drop(packet_with_tag(0), HopContext{0, 3, 4}));
}

TEST(RandomDropTest, PredicateFilters) {
  RandomDrop d(1.0, 1, [](const Packet& p) { return tag_is(p, 5); });
  EXPECT_FALSE(d.should_drop(packet_with_tag(4), HopContext{0, 0, 1}));
  EXPECT_TRUE(d.should_drop(packet_with_tag(5), HopContext{0, 0, 1}));
}

TEST(RandomDropTest, RejectsBadRate) {
  EXPECT_THROW(RandomDrop(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(RandomDrop(1.1, 1), std::invalid_argument);
}

TEST(CompositeDropTest, DropsIfAnyPolicyDrops) {
  CompositeDrop c;
  c.add(std::make_shared<NoDrop>());
  c.add(std::make_shared<ScriptedLinkDrop>(0, 1,
                                           [](const Packet&) { return true; }));
  EXPECT_TRUE(c.should_drop(packet_with_tag(0), HopContext{0, 0, 1}));
  EXPECT_FALSE(c.should_drop(packet_with_tag(0), HopContext{0, 1, 0}));
}

TEST(CompositeDropTest, AllPoliciesConsulted) {
  CompositeDrop c;
  auto a = std::make_shared<ScriptedLinkDrop>(
      0, 1, [](const Packet&) { return true; });
  auto b = std::make_shared<ScriptedLinkDrop>(
      0, 1, [](const Packet&) { return true; });
  c.add(a);
  c.add(b);
  c.should_drop(packet_with_tag(0), HopContext{0, 0, 1});
  // Both stateful policies advanced even though the first already dropped.
  EXPECT_EQ(a->drops_so_far(), 1u);
  EXPECT_EQ(b->drops_so_far(), 1u);
}

TEST(CompositeDropTest, RejectsNull) {
  CompositeDrop c;
  EXPECT_THROW(c.add(nullptr), std::invalid_argument);
}

// ---- request/repair loss (Sec. VII-A: requests and repairs themselves can
// be lost; the timers must re-expire and retry) ------------------------------

Packet request_packet() {
  Packet p;
  p.payload = std::make_shared<RequestMessage>(
      DataName{1, PageId{1, 0}, 0}, /*requestor=*/2, /*dist=*/1.0,
      /*initial_ttl=*/kMaxTtl);
  return p;
}

Packet repair_packet() {
  Packet p;
  p.payload = std::make_shared<RepairMessage>(
      DataName{1, PageId{1, 0}, 0}, std::make_shared<Payload>(Payload{0xAB}),
      /*responder=*/3, /*first_requestor=*/2, /*dist=*/1.0,
      /*initial_ttl=*/kMaxTtl);
  return p;
}

TEST(ScriptedLinkDropTest, DropsRequestsNotRepairs) {
  ScriptedLinkDrop d(0, 1, [](const Packet& p) {
    return dynamic_cast<const RequestMessage*>(p.payload.get()) != nullptr;
  });
  EXPECT_FALSE(d.should_drop(repair_packet(), HopContext{0, 0, 1}));
  EXPECT_TRUE(d.should_drop(request_packet(), HopContext{0, 0, 1}));
}

TEST(ScriptedLinkDropTest, RepairDropExhaustsMaxDrops) {
  ScriptedLinkDrop d(
      0, 1,
      [](const Packet& p) {
        return dynamic_cast<const RepairMessage*>(p.payload.get()) != nullptr;
      },
      /*max_drops=*/2);
  EXPECT_FALSE(d.should_drop(request_packet(), HopContext{0, 0, 1}));
  EXPECT_TRUE(d.should_drop(repair_packet(), HopContext{0, 0, 1}));
  EXPECT_TRUE(d.should_drop(repair_packet(), HopContext{0, 0, 1}));
  // Budget exhausted: the third repair gets through.
  EXPECT_FALSE(d.should_drop(repair_packet(), HopContext{0, 0, 1}));
  EXPECT_EQ(d.drops_so_far(), 2u);
}

// ---- Gilbert-Elliott bursty loss -------------------------------------------

TEST(GilbertElliottDropTest, GoodStateWithZeroLossNeverDrops) {
  GilbertElliottDrop::Params p;
  p.p_good_bad = 0.0;  // never leaves the good state
  p.loss_good = 0.0;
  GilbertElliottDrop d(p, 1);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(d.should_drop(packet_with_tag(0),
                               HopContext{0, 0, 1, i, 0.1 * i}));
  }
  EXPECT_FALSE(d.in_bad_state(0, 100.0));
}

TEST(GilbertElliottDropTest, EntersBadStateAndDropsEverything) {
  GilbertElliottDrop::Params p;
  p.p_good_bad = 1.0;  // flip to bad after the first slot
  p.p_bad_good = 0.0;  // and stay there
  p.loss_bad = 1.0;
  GilbertElliottDrop d(p, 1);
  // Slot 0 is always good (loss_good = 0); every later slot is bad.
  EXPECT_FALSE(d.should_drop(packet_with_tag(0), HopContext{0, 0, 1, 0, 0.0}));
  EXPECT_FALSE(d.in_bad_state(0, 0.0));
  EXPECT_TRUE(d.in_bad_state(0, p.slot_dt));
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_TRUE(d.should_drop(packet_with_tag(0),
                              HopContext{0, 0, 1, i, i * p.slot_dt}));
  }
}

TEST(GilbertElliottDropTest, StationaryLossRateMatchesTheory) {
  // Stationary P(bad) = p_gb / (p_gb + p_bg) = 0.1 / 0.4 = 0.25; with
  // loss_bad = 1 and loss_good = 0 the long-run drop rate equals it.
  GilbertElliottDrop::Params p;
  p.p_good_bad = 0.1;
  p.p_bad_good = 0.3;
  GilbertElliottDrop d(p, 42);
  const int hops = 20000;  // one hop per chain slot
  int drops = 0;
  for (std::uint64_t i = 0; i < hops; ++i) {
    if (d.should_drop(packet_with_tag(0),
                      HopContext{0, 0, 1, i, i * p.slot_dt})) {
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / hops, 0.25, 0.03);
}

TEST(GilbertElliottDropTest, MeanBurstLengthMatchesTheory) {
  // Loss bursts are the bad-state sojourns: geometric with mean 1/p_bg
  // slots (sampled with one hop per slot).
  GilbertElliottDrop::Params p;
  p.p_good_bad = 0.05;
  p.p_bad_good = 0.3;
  GilbertElliottDrop d(p, 7);
  int bursts = 0;
  int burst_hops = 0;
  int run = 0;
  for (std::uint64_t i = 0; i < 200000; ++i) {
    if (d.should_drop(packet_with_tag(0),
                      HopContext{0, 0, 1, i, i * p.slot_dt})) {
      ++run;
    } else if (run > 0) {
      ++bursts;
      burst_hops += run;
      run = 0;
    }
  }
  ASSERT_GT(bursts, 100);
  EXPECT_NEAR(static_cast<double>(burst_hops) / bursts, 1.0 / 0.3, 0.3);
}

TEST(GilbertElliottDropTest, ChainIsPureFunctionOfTime) {
  // Querying the chain out of order (even backwards) returns the same
  // states as a fresh policy queried forwards: the per-link chain is a
  // pure function of (seed, link, slot), not of consultation history.
  GilbertElliottDrop::Params p;
  p.p_good_bad = 0.2;
  p.p_bad_good = 0.2;
  GilbertElliottDrop fwd(p, 9);
  GilbertElliottDrop scattered(p, 9);
  std::vector<bool> states;
  for (std::uint64_t k = 0; k < 300; ++k) {
    states.push_back(fwd.in_bad_state(0, k * p.slot_dt));
  }
  for (std::uint64_t k = 300; k-- > 0;) {
    scattered.in_bad_state(1, (k * 7 % 300) * p.slot_dt);  // noise, link 1
    EXPECT_EQ(scattered.in_bad_state(0, k * p.slot_dt), states[k]);
  }
}

TEST(GilbertElliottDropTest, LinksHaveIndependentChains) {
  GilbertElliottDrop::Params p;
  p.p_good_bad = 0.3;
  p.p_bad_good = 0.3;
  GilbertElliottDrop d(p, 13);
  bool differ = false;
  for (std::uint64_t k = 1; k < 200 && !differ; ++k) {
    differ = d.in_bad_state(0, k * p.slot_dt) != d.in_bad_state(1, k * p.slot_dt);
  }
  EXPECT_TRUE(differ);
}

TEST(GilbertElliottDropTest, RestrictToLeavesOtherLinksUntouched) {
  GilbertElliottDrop::Params p;
  p.p_good_bad = 1.0;
  p.loss_bad = 1.0;
  GilbertElliottDrop d(p, 1);
  d.restrict_to(3, 4);
  // Hops elsewhere are never dropped, deep into the bad state or not.
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_FALSE(d.should_drop(packet_with_tag(0),
                               HopContext{0, 0, 1, i, i * p.slot_dt}));
  }
  EXPECT_EQ(d.drops_so_far(), 0u);
}

TEST(GilbertElliottDropTest, RejectsBadParams) {
  GilbertElliottDrop::Params p;
  p.p_good_bad = 1.5;
  EXPECT_THROW(GilbertElliottDrop(p, 1), std::invalid_argument);
  p = {};
  p.loss_bad = -0.1;
  EXPECT_THROW(GilbertElliottDrop(p, 1), std::invalid_argument);
  p = {};
  p.slot_dt = 0.0;
  EXPECT_THROW(GilbertElliottDrop(p, 1), std::invalid_argument);
}

}  // namespace
}  // namespace srm::net
