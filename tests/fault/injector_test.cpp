#include "fault/injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "topo/builders.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace srm::fault {
namespace {

class TestMessage : public net::Message {
 public:
  std::string describe() const override { return "TEST"; }
};

class Recorder : public net::PacketSink {
 public:
  void on_receive(const net::Packet&, const net::DeliveryInfo&) override {
    ++received;
  }
  int received = 0;
};

net::Packet make_packet(net::GroupId g) {
  net::Packet p;
  p.group = g;
  p.payload = std::make_shared<TestMessage>();
  return p;
}

// Chain 0-1-2-...; link i connects nodes (i, i+1) with delay 1 s; every node
// is a group-1 member with a counting sink.
class InjectorTest : public ::testing::Test {
 protected:
  void build_chain(std::size_t n) {
    topo_ = std::make_unique<net::Topology>(topo::make_chain(n));
    net_ = std::make_unique<net::MulticastNetwork>(queue_, *topo_);
    for (net::NodeId v = 0; v < n; ++v) {
      sinks_.push_back(std::make_unique<Recorder>());
      net_->attach(v, sinks_.back().get());
      net_->join(1, v);
    }
  }

  FaultInjector make_injector(FaultPlan plan) {
    return FaultInjector(queue_, *topo_, *net_, std::move(plan),
                         util::Rng(99));
  }

  sim::EventQueue queue_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<net::MulticastNetwork> net_;
  std::vector<std::unique_ptr<Recorder>> sinks_;
};

TEST_F(InjectorTest, LinkDownStopsDeliveryAndLinkUpRestores) {
  build_chain(4);
  FaultPlan plan;
  plan.link_down(10.0, 2);  // severs node 3
  plan.link_up(20.0, 2);
  auto injector = make_injector(std::move(plan));
  injector.arm();

  int received_while_down = -1;
  queue_.schedule_at(12.0, [this] { net_->multicast(0, make_packet(1)); });
  queue_.schedule_at(19.0, [&, this] {
    received_while_down = sinks_[3]->received;
    EXPECT_FALSE(topo_->link_up(2));
    EXPECT_THROW(net_->distance(0, 3), std::runtime_error);
    EXPECT_DOUBLE_EQ(net_->distance(0, 2), 2.0);  // near side still routed
  });
  queue_.schedule_at(25.0, [this] { net_->multicast(0, make_packet(1)); });
  queue_.run();

  EXPECT_EQ(received_while_down, 0);
  EXPECT_EQ(sinks_[2]->received, 2);  // near side got both multicasts
  EXPECT_EQ(sinks_[3]->received, 1);  // far side only after the repair
  EXPECT_EQ(injector.stats().links_taken_down, 1u);
  EXPECT_EQ(injector.stats().links_brought_up, 1u);
}

TEST_F(InjectorTest, InFlightDeliveriesAcrossDownLinkAreInvalidated) {
  build_chain(5);
  FaultPlan plan;
  plan.link_down(1.5, 2);  // while the t=0 multicast is mid-flight
  auto injector = make_injector(std::move(plan));
  injector.arm();

  net_->multicast(0, make_packet(1));  // deliveries due at t = 1, 2, 3, 4
  queue_.run();

  EXPECT_EQ(sinks_[1]->received, 1);
  EXPECT_EQ(sinks_[2]->received, 1);  // path does not cross the down link
  EXPECT_EQ(sinks_[3]->received, 0);  // was in flight across it
  EXPECT_EQ(sinks_[4]->received, 0);
  EXPECT_EQ(net_->stats().in_flight_invalidated, 2u);
}

TEST_F(InjectorTest, PartitionCutsIslandAndHealRestores) {
  build_chain(6);
  FaultPlan plan;
  plan.partition(10.0, {4, 5});  // boundary: link 3 (nodes 3-4)
  plan.heal(30.0, 0);
  auto injector = make_injector(std::move(plan));
  injector.arm();

  queue_.schedule_at(15.0, [this] {
    EXPECT_FALSE(topo_->link_up(3));
    EXPECT_TRUE(topo_->link_up(4));  // intra-island link untouched
    net_->multicast(0, make_packet(1));
    net_->multicast(5, make_packet(1));  // island keeps working internally
  });
  queue_.schedule_at(28.0, [this] {
    EXPECT_EQ(sinks_[3]->received, 1);
    EXPECT_EQ(sinks_[4]->received, 1);  // from node 5, not node 0
    EXPECT_EQ(sinks_[5]->received, 0);
  });
  queue_.schedule_at(35.0, [this] { net_->multicast(0, make_packet(1)); });
  queue_.run();

  EXPECT_EQ(sinks_[5]->received, 1);  // reachable again after the heal
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().heals, 1u);
}

TEST_F(InjectorTest, HealRestoresOnlyTheCut) {
  build_chain(6);
  FaultPlan plan;
  plan.link_down(5.0, 4);        // nodes 4-5, down before the partition
  plan.partition(10.0, {4, 5});  // cut is just link 3 — link 4 already down
  plan.heal(20.0, 0);
  auto injector = make_injector(std::move(plan));
  injector.arm();
  queue_.run();

  EXPECT_TRUE(topo_->link_up(3));   // healed
  EXPECT_FALSE(topo_->link_up(4));  // still down: it was not part of the cut
  EXPECT_EQ(injector.stats().links_taken_down, 2u);
  EXPECT_EQ(injector.stats().links_brought_up, 1u);
}

TEST_F(InjectorTest, MembershipEventsDelegateToHooks) {
  build_chain(3);
  FaultPlan plan;
  plan.join(1.0, 2);
  plan.leave(2.0, 1);
  plan.crash(3.0, 0);
  plan.rejoin(4.0, 0);
  auto injector = make_injector(std::move(plan));

  std::vector<std::pair<net::NodeId, int>> calls;  // (node, kind)
  MembershipHooks hooks;
  hooks.join = [&](net::NodeId n) { calls.emplace_back(n, 0); };
  hooks.leave = [&](net::NodeId n, bool graceful) {
    calls.emplace_back(n, graceful ? 1 : 2);
  };
  injector.set_membership_hooks(std::move(hooks));
  injector.arm();
  queue_.run();

  const std::vector<std::pair<net::NodeId, int>> want{
      {2, 0}, {1, 1}, {0, 2}, {0, 0}};
  EXPECT_EQ(calls, want);
  EXPECT_EQ(injector.stats().joins, 2u);
  EXPECT_EQ(injector.stats().leaves, 1u);
  EXPECT_EQ(injector.stats().crashes, 1u);
}

TEST_F(InjectorTest, MissingHooksMakeMembershipEventsNoOps) {
  build_chain(2);
  FaultPlan plan;
  plan.join(1.0, 0);
  plan.crash(2.0, 1);
  auto injector = make_injector(std::move(plan));
  injector.arm();
  EXPECT_NO_THROW(queue_.run());
}

TEST_F(InjectorTest, BurstEpochInstallsAndRemovesFaultDropPolicy) {
  build_chain(2);
  FaultPlan plan;
  net::GilbertElliottDrop::Params burst;
  burst.p_good_bad = 1.0;  // bad after the first consulted hop
  burst.p_bad_good = 0.0;
  burst.loss_bad = 1.0;
  plan.burst_on(1.0, burst);
  plan.burst_off(10.0);
  auto injector = make_injector(std::move(plan));
  injector.arm();

  queue_.schedule_at(2.0, [this] {
    EXPECT_NE(net_->fault_drop_policy(), nullptr);
    // With p_good_bad = 1 the time-slotted chain is bad from slot 1 on, so
    // both multicasts at t=2.0 land in the bad state and drop.
    net_->multicast(0, make_packet(1));
    net_->multicast(0, make_packet(1));
  });
  queue_.schedule_at(12.0, [this] {
    EXPECT_EQ(net_->fault_drop_policy(), nullptr);
    net_->multicast(0, make_packet(1));
  });
  queue_.run();

  EXPECT_EQ(sinks_[1]->received, 1);  // two burst losses, one clean delivery
  EXPECT_EQ(net_->stats().drops, 2u);
  EXPECT_EQ(injector.stats().burst_epochs, 1u);
}

TEST_F(InjectorTest, DisruptionWindowsTrackOverlappingFaults) {
  build_chain(6);
  FaultPlan plan;
  plan.link_down(10.0, 0);
  plan.partition(12.0, {5});  // overlaps the link outage
  plan.link_up(20.0, 0);
  plan.heal(25.0, 0);
  plan.link_down(40.0, 1);  // never repaired
  auto injector = make_injector(std::move(plan));
  injector.arm();
  queue_.run();

  const auto& windows = injector.disruption_windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].start, 10.0);
  EXPECT_DOUBLE_EQ(windows[0].end, 25.0);
  EXPECT_DOUBLE_EQ(windows[1].start, 40.0);
  EXPECT_TRUE(std::isinf(windows[1].end));
}

TEST_F(InjectorTest, RedundantLinkEventsAreIgnored) {
  build_chain(3);
  FaultPlan plan;
  plan.link_up(1.0, 0);    // already up
  plan.link_down(2.0, 0);
  plan.link_down(3.0, 0);  // already down
  plan.link_up(4.0, 0);
  auto injector = make_injector(std::move(plan));
  injector.arm();
  queue_.run();

  EXPECT_TRUE(topo_->link_up(0));
  EXPECT_EQ(injector.stats().links_taken_down, 1u);
  EXPECT_EQ(injector.stats().links_brought_up, 1u);
  const auto& windows = injector.disruption_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].start, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].end, 4.0);
}

TEST_F(InjectorTest, EmitsFaultTraceEvents) {
  build_chain(4);
  trace::VectorSink capture;
  trace::Tracer tracer;
  tracer.set_sink(&capture);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kFault));

  FaultPlan plan;
  plan.link_down(1.0, 2);
  plan.link_up(2.0, 2);
  plan.partition(3.0, {3});
  plan.heal(4.0, 0);
  plan.crash(5.0, 3);
  plan.rejoin(6.0, 3);
  plan.burst_on(7.0, {});
  plan.burst_off(8.0);
  auto injector = make_injector(std::move(plan));
  injector.set_tracer(&tracer);
  injector.arm();
  queue_.run();

  std::vector<trace::EventType> types;
  for (const trace::Event& ev : capture.events()) types.push_back(ev.type);
  const std::vector<trace::EventType> want{
      trace::EventType::kFaultLinkDown, trace::EventType::kFaultLinkUp,
      trace::EventType::kFaultPartition, trace::EventType::kFaultHeal,
      trace::EventType::kFaultCrash,     trace::EventType::kFaultRejoin,
      trace::EventType::kFaultBurstOn,   trace::EventType::kFaultBurstOff};
  // The partition/heal pair also emits link down/up events for the cut.
  std::vector<trace::EventType> filtered;
  for (trace::EventType t : types) {
    if (filtered.size() < want.size() && t == want[filtered.size()]) {
      filtered.push_back(t);
    }
  }
  EXPECT_EQ(filtered, want);
  EXPECT_GE(capture.events().size(), want.size());
}

TEST_F(InjectorTest, SameTimeCutEventsFormOneEditGroup) {
  build_chain(8);
  // Warm every source's tree so the query below sees a stale cache.
  for (net::NodeId v = 0; v < 8; ++v) net_->routing().spt(v);

  FaultPlan plan;
  plan.link_down(10.0, 6);       // severs node 7
  plan.partition(10.0, {0, 1});  // same instant: cuts link 1 (nodes 1-2)
  auto injector = make_injector(std::move(plan));
  injector.arm();
  queue_.run();

  EXPECT_FALSE(topo_->link_up(6));
  EXPECT_FALSE(topo_->link_up(1));
  EXPECT_EQ(injector.stats().links_taken_down, 2u);

  // The cached tree is brought up to date past both cuts.
  EXPECT_EQ(net_->routing().try_hop_count(0, 1), 1);
  EXPECT_EQ(net_->routing().try_hop_count(0, 2), -1);
  EXPECT_EQ(net_->routing().try_hop_count(0, 7), -1);
}

TEST_F(InjectorTest, PartitionInvalidatesInFlightAgainstPreFailureTrees) {
  build_chain(6);
  FaultPlan plan;
  plan.partition(1.5, {3, 4, 5});  // cut = link 2, while t=0 packet flies
  auto injector = make_injector(std::move(plan));
  injector.arm();

  net_->multicast(0, make_packet(1));  // deliveries due at t = 1..5
  queue_.run();

  EXPECT_EQ(sinks_[1]->received, 1);
  EXPECT_EQ(sinks_[2]->received, 1);
  EXPECT_EQ(sinks_[3]->received, 0);  // in flight across the cut
  EXPECT_EQ(sinks_[4]->received, 0);
  EXPECT_EQ(sinks_[5]->received, 0);
  EXPECT_EQ(net_->stats().in_flight_invalidated, 3u);
}

TEST_F(InjectorTest, RejectsMismatchedTopology) {
  build_chain(3);
  net::Topology other = topo::make_chain(3);
  EXPECT_THROW(FaultInjector(queue_, other, *net_, FaultPlan{},
                             util::Rng(1)),
               std::invalid_argument);
}

TEST_F(InjectorTest, RefusesIdsTheTopologyLacks) {
  build_chain(4);  // nodes 0..3, links 0..2
  const std::vector<std::pair<FaultPlan, std::string>> bad = {
      {FaultPlan().link_down(5.0, 3), "link_down at 5 names link 3"},
      {FaultPlan().link_up(5.0, 99999), "link_up at 5 names link 99999"},
      {FaultPlan().partition(5.0, {2, 4}), "partition at 5 names node 4"},
      {FaultPlan().join(5.0, 99999), "join at 5 names node 99999"},
      {FaultPlan().leave(5.0, 4), "leave at 5 names node 4"},
      {FaultPlan().crash(5.0, 99999), "crash at 5 names node 99999"},
      {FaultPlan().rejoin(5.0, 4), "rejoin at 5 names node 4"},
  };
  for (const auto& [plan, message] : bad) {
    // A valid event earlier in the plan is not scheduled either.
    FaultPlan with_valid = FaultPlan().link_down(1.0, 0).merge(plan);
    auto injector = make_injector(std::move(with_valid));
    try {
      injector.arm();
      ADD_FAILURE() << message << ": armed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(queue_.pending_events(), 0u) << message;
  }
  // The last node and link are in range.
  auto injector = make_injector(
      FaultPlan().link_down(1.0, 2).partition(2.0, {3}).crash(3.0, 3));
  injector.arm();
  EXPECT_EQ(queue_.pending_events(), 3u);
}

}  // namespace
}  // namespace srm::fault
