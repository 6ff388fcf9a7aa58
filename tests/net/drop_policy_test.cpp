#include "net/drop_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "net/network.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "util/rng.h"

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

TEST(PdesGilbertElliottTest, RegionRowsMatchInOrderChain) {
  // Under the parallel kernel each region walks the same links in its own
  // non-decreasing time, through its own memo row.  Rows queried out of
  // order, and two threads driving distinct rows at once, must see the
  // states of a fresh chain queried in order.
  GilbertElliottDrop::Params p;
  p.p_good_bad = 0.2;
  p.p_bad_good = 0.3;
  constexpr LinkId kLinks = 4;
  constexpr std::uint64_t kSlots = 1000;
  const auto at = [&p](std::uint64_t slot) {
    return (static_cast<double>(slot) + 0.25) * p.slot_dt;
  };
  GilbertElliottDrop fresh(p, 17);
  std::vector<std::vector<bool>> want(kLinks);
  for (LinkId link = 0; link < kLinks; ++link) {
    for (std::uint64_t k = 0; k < kSlots; ++k) {
      want[link].push_back(fresh.in_bad_state(link, at(k)));
    }
  }

  // Region 0 forwards, region 1 strided, region 2 backwards.
  GilbertElliottDrop scattered(p, 17);
  scattered.prepare(kLinks, 3);
  for (std::uint64_t i = 0; i < kSlots; ++i) {
    const std::uint64_t strided = i * 7 % kSlots;
    const std::uint64_t back = kSlots - 1 - i;
    for (LinkId link = 0; link < kLinks; ++link) {
      ASSERT_EQ(scattered.in_bad_state(link, at(i), 0), want[link][i]);
      ASSERT_EQ(scattered.in_bad_state(link, at(strided), 1),
                want[link][strided]);
      ASSERT_EQ(scattered.in_bad_state(link, at(back), 2), want[link][back]);
    }
  }

  // Two workers walk regions 0 and 1 through should_drop; with the default
  // losses (1 in the bad state, 0 in the good one) a drop is exactly a bad
  // slot.
  GilbertElliottDrop shared(p, 17);
  shared.prepare(kLinks, 2);
  std::vector<std::vector<bool>> seen[2];
  std::vector<std::thread> workers;
  for (std::uint32_t region = 0; region < 2; ++region) {
    seen[region].assign(kLinks, std::vector<bool>(kSlots));
    workers.emplace_back([&, region] {
      const Packet packet = packet_with_tag(0);
      for (std::uint64_t k = 0; k < kSlots; ++k) {
        for (LinkId link = 0; link < kLinks; ++link) {
          const HopContext hop{link, 0, 1, k, at(k), region};
          seen[region][link][k] = shared.should_drop(packet, hop);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::size_t bad_slots = 0;
  for (LinkId link = 0; link < kLinks; ++link) {
    EXPECT_EQ(seen[0][link], want[link]) << "link " << link;
    EXPECT_EQ(seen[1][link], want[link]) << "link " << link;
    for (bool bad : want[link]) bad_slots += bad ? 1 : 0;
  }
  EXPECT_EQ(shared.drops_so_far(), 2 * bad_slots);
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

TEST(GilbertElliottDropTest, CertainLossSkipsOnlyKnownDraws) {
  // A state whose loss probability is exactly 0 or 1 decides without the
  // keyed draw.  The decisions must be exactly those of a reference that
  // always draws keyed_unit against the chain state: the policy's salt and
  // directed-edge key, restated here.
  constexpr std::uint64_t kSeed = 31;
  constexpr std::uint64_t kSaltGeLoss = 2;
  const std::pair<double, double> losses[] = {
      {0.0, 1.0}, {0.0, 0.3}, {0.7, 1.0}, {0.25, 0.75}};
  util::Rng rng(5);
  const Packet packet = packet_with_tag(0);
  for (const auto& [loss_good, loss_bad] : losses) {
    GilbertElliottDrop::Params p;
    p.p_good_bad = 0.3;
    p.p_bad_good = 0.3;
    p.loss_good = loss_good;
    p.loss_bad = loss_bad;
    GilbertElliottDrop policy(p, kSeed);
    GilbertElliottDrop chain(p, kSeed);  // the reference's state
    std::size_t want_drops = 0;
    std::size_t bad_hops = 0;
    for (int i = 0; i < 50000; ++i) {
      HopContext hop;
      hop.link = static_cast<LinkId>(rng.index(8));
      hop.from = static_cast<NodeId>(rng.index(6));
      hop.to = static_cast<NodeId>((hop.from + 1 + rng.index(5)) % 6);
      hop.packet_ordinal = rng.next_u64();
      hop.now = rng.uniform(0.0, 40.0);
      hop.region = static_cast<std::uint32_t>(rng.index(2));
      const bool bad = chain.in_bad_state(hop.link, hop.now, hop.region);
      const std::uint64_t edge =
          (static_cast<std::uint64_t>(hop.link) << 1) | (hop.from > hop.to);
      const bool want =
          util::keyed_unit(kSeed, edge, hop.packet_ordinal, kSaltGeLoss) <
          (bad ? loss_bad : loss_good);
      ASSERT_EQ(policy.should_drop(packet, hop), want)
          << "losses (" << loss_good << ", " << loss_bad << ") hop " << i;
      want_drops += want ? 1 : 0;
      bad_hops += bad ? 1 : 0;
    }
    EXPECT_EQ(policy.drops_so_far(), want_drops);
    // Both states were visited, so both losses were exercised.
    EXPECT_GT(bad_hops, 10000u);
    EXPECT_LT(bad_hops, 40000u);
  }
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

// ---- the one-link restriction, shared by every policy ----------------------

// Records the hop of every should_drop call; drops on every hop its
// restriction applies to when `drop` is set.
class CountingDrop final : public DropPolicy {
 public:
  explicit CountingDrop(bool drop) : drop_(drop) {}
  bool should_drop(const Packet&, const HopContext& hop) override {
    hops.emplace_back(hop.from, hop.to);
    return drop_ && applies(hop);
  }
  std::vector<std::pair<NodeId, NodeId>> hops;

 private:
  bool drop_;
};

class NullSink final : public PacketSink {
 public:
  void on_receive(const Packet&, const DeliveryInfo&) override { ++received; }
  int received = 0;
};

TEST(DropPolicyTest, RestrictionLivesInTheBase) {
  const Packet packet = packet_with_tag(0);
  const HopContext on{0, 3, 4};
  const HopContext reverse{0, 4, 3};
  const HopContext elsewhere{1, 0, 1};

  // restrict_to works on all three classes, and a direct should_drop on
  // another hop still passes it.
  ScriptedLinkDrop scripted(0, 1, [](const Packet&) { return true; },
                            /*max_drops=*/100);
  scripted.restrict_to(3, 4);
  RandomDrop random(1.0, 1);
  random.restrict_to(3, 4);
  GilbertElliottDrop::Params p;
  p.p_good_bad = 1.0;  // bad from slot 1 on
  p.p_bad_good = 0.0;
  GilbertElliottDrop bursty(p, 1);
  bursty.restrict_to(3, 4);
  const HopContext late_on{0, 3, 4, 0, 10.0};
  const HopContext late_elsewhere{1, 0, 1, 0, 10.0};
  for (DropPolicy* d :
       std::vector<DropPolicy*>{&scripted, &random, &bursty}) {
    EXPECT_TRUE(d->applies(on));
    EXPECT_FALSE(d->applies(reverse));
    EXPECT_FALSE(d->applies(elsewhere));
    EXPECT_FALSE(d->should_drop(packet, reverse));
    EXPECT_FALSE(d->should_drop(packet, late_elsewhere));
    EXPECT_TRUE(d->should_drop(packet, late_on));
  }
  EXPECT_EQ(scripted.drops_so_far(), 1u);
  EXPECT_EQ(random.drops_so_far(), 1u);
  EXPECT_EQ(bursty.drops_so_far(), 1u);
  EXPECT_TRUE(NoDrop().applies(elsewhere));  // unrestricted by default

  // Through CompositeDrop, a restricted policy is never invoked for another
  // hop; an unrestricted one sees every hop.
  auto counted = std::make_shared<CountingDrop>(/*drop=*/true);
  counted->restrict_to(3, 4);
  auto everything = std::make_shared<CountingDrop>(/*drop=*/false);
  CompositeDrop composite;
  composite.add(counted);
  composite.add(everything);
  EXPECT_FALSE(composite.should_drop(packet, reverse));
  EXPECT_FALSE(composite.should_drop(packet, elsewhere));
  EXPECT_TRUE(composite.should_drop(packet, on));
  using Hops = std::vector<std::pair<NodeId, NodeId>>;
  EXPECT_EQ(counted->hops, (Hops{{3, 4}}));
  EXPECT_EQ(everything->hops, (Hops{{4, 3}, {0, 1}, {3, 4}}));

  // Nor by a MulticastNetwork walk, in either policy slot: on a chain, only
  // sends that cross 1 -> 2 consult it, once per send.
  sim::EventQueue queue;
  Topology topo = topo::make_chain(4);
  MulticastNetwork net(queue, topo);
  std::vector<NullSink> sinks(4);
  for (NodeId v = 0; v < 4; ++v) {
    net.attach(v, &sinks[v]);
    net.join(1, v);
  }
  auto primary = std::make_shared<CountingDrop>(/*drop=*/true);
  primary->restrict_to(1, 2);
  auto fault = std::make_shared<CountingDrop>(/*drop=*/true);
  fault->restrict_to(2, 1);
  net.set_drop_policy(primary);
  net.set_fault_drop_policy(fault);
  Packet data = packet_with_tag(0);
  data.group = 1;
  for (NodeId sender = 0; sender < 4; ++sender) net.multicast(sender, data);
  queue.run();
  // Senders 0 and 1 cross 1 -> 2 (and drop there); 2 and 3 cross 2 -> 1.
  EXPECT_EQ(primary->hops, (Hops{{1, 2}, {1, 2}}));
  EXPECT_EQ(fault->hops, (Hops{{2, 1}, {2, 1}}));
  EXPECT_EQ(net.stats().drops, 4u);
}

}  // namespace
}  // namespace srm::net
