#include "net/network.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "topo/builders.h"

namespace srm::net {
namespace {

class TestMessage : public Message {
 public:
  explicit TestMessage(int tag = 0) : tag_(tag) {}
  int tag() const { return tag_; }
  std::string describe() const override { return "TEST"; }

 private:
  int tag_;
};

// Records every delivery.
class Recorder : public PacketSink {
 public:
  struct Rx {
    Packet packet;
    DeliveryInfo info;
    double at;
  };
  explicit Recorder(sim::EventQueue& q) : queue_(&q) {}
  void on_receive(const Packet& p, const DeliveryInfo& i) override {
    received.push_back(Rx{p, i, queue_->now()});
  }
  std::vector<Rx> received;

 private:
  sim::EventQueue* queue_;
};

Packet make_packet(GroupId g, int ttl = kMaxTtl) {
  Packet p;
  p.group = g;
  p.ttl = ttl;
  p.payload = std::make_shared<TestMessage>();
  return p;
}

class NetworkTest : public ::testing::Test {
 protected:
  void build_chain(std::size_t n) {
    topo_ = std::make_unique<Topology>(topo::make_chain(n));
    net_ = std::make_unique<MulticastNetwork>(queue_, *topo_);
    for (NodeId v = 0; v < n; ++v) {
      sinks_.push_back(std::make_unique<Recorder>(queue_));
      net_->attach(v, sinks_.back().get());
    }
  }
  sim::EventQueue queue_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<MulticastNetwork> net_;
  std::vector<std::unique_ptr<Recorder>> sinks_;
};

TEST_F(NetworkTest, MulticastReachesAllMembersExceptSender) {
  build_chain(5);
  for (NodeId v = 0; v < 5; ++v) net_->join(1, v);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_TRUE(sinks_[0]->received.empty());  // no loopback
  for (NodeId v = 1; v < 5; ++v) {
    ASSERT_EQ(sinks_[v]->received.size(), 1u) << "node " << v;
    EXPECT_DOUBLE_EQ(sinks_[v]->received[0].info.path_delay,
                     static_cast<double>(v));
    EXPECT_EQ(sinks_[v]->received[0].info.hops, static_cast<int>(v));
  }
}

// A sink that throws out of a delivery leaves the rest of its chain
// queued, on the inline path as on the queued one that `sim` tracing
// keeps, and the next run delivers it.
TEST(NetworkChainTest, SinkExceptionLeavesTheRestOfTheChainQueued) {
  class Throwing : public PacketSink {
   public:
    Throwing(std::vector<NodeId>& log, NodeId node) : log_(log), node_(node) {}
    void on_receive(const Packet&, const DeliveryInfo&) override {
      log_.push_back(node_);
      if (node_ == 2 && log_.size() == 2) throw std::runtime_error("sink");
    }

   private:
    std::vector<NodeId>& log_;
    NodeId node_;
  };
  for (const trace::Category category :
       {trace::Category::kSim, trace::Category::kNet}) {
    SCOPED_TRACE(static_cast<int>(category));
    sim::EventQueue queue;
    trace::VectorSink records;
    trace::Tracer tracer;
    tracer.set_sink(&records);
    tracer.set_mask(static_cast<std::uint32_t>(category));
    queue.set_tracer(&tracer);
    const Topology topo = topo::make_chain(5);
    MulticastNetwork net(queue, topo);
    std::vector<NodeId> log;
    std::vector<std::unique_ptr<Throwing>> sinks;
    for (NodeId v = 0; v < 5; ++v) {
      sinks.push_back(std::make_unique<Throwing>(log, v));
      net.attach(v, sinks.back().get());
      net.join(1, v);
    }
    net.multicast(0, make_packet(1));
    EXPECT_THROW(queue.run(), std::runtime_error);
    EXPECT_EQ(queue.pending_events(), 1u);
    EXPECT_EQ(queue.run(), 2u);
    EXPECT_EQ(log, (std::vector<NodeId>{1, 2, 3, 4}));
    EXPECT_EQ(queue.executed_events(), 4u);
  }
}

TEST_F(NetworkTest, NonMembersDoNotReceive) {
  build_chain(4);
  net_->join(1, 0);
  net_->join(1, 3);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_TRUE(sinks_[1]->received.empty());
  EXPECT_TRUE(sinks_[2]->received.empty());
  EXPECT_EQ(sinks_[3]->received.size(), 1u);
}

TEST_F(NetworkTest, GroupsAreIsolated) {
  build_chain(3);
  net_->join(1, 1);
  net_->join(2, 2);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_EQ(sinks_[1]->received.size(), 1u);
  EXPECT_TRUE(sinks_[2]->received.empty());
}

TEST_F(NetworkTest, LeaveStopsDelivery) {
  build_chain(3);
  net_->join(1, 2);
  net_->leave(1, 2);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_TRUE(sinks_[2]->received.empty());
}

TEST_F(NetworkTest, MembershipQueries) {
  build_chain(3);
  net_->join(9, 1);
  net_->join(9, 0);
  EXPECT_TRUE(net_->is_member(9, 1));
  EXPECT_FALSE(net_->is_member(9, 2));
  EXPECT_EQ(net_->members(9), (std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(net_->members(77).empty());
}

TEST_F(NetworkTest, TtlLimitsReach) {
  build_chain(6);
  for (NodeId v = 0; v < 6; ++v) net_->join(1, v);
  net_->multicast(0, make_packet(1, /*ttl=*/2));
  queue_.run();
  EXPECT_EQ(sinks_[1]->received.size(), 1u);
  EXPECT_EQ(sinks_[2]->received.size(), 1u);
  EXPECT_TRUE(sinks_[3]->received.empty());
  EXPECT_EQ(sinks_[2]->received[0].info.remaining_ttl, 0);
}

TEST_F(NetworkTest, LinkThresholdBlocksLowTtl) {
  // Chain 0-1-2 where link (1,2) has threshold 10.
  topo_ = std::make_unique<Topology>(3);
  topo_->add_link(0, 1, 1.0, 1);
  topo_->add_link(1, 2, 1.0, 10);
  net_ = std::make_unique<MulticastNetwork>(queue_, *topo_);
  for (NodeId v = 0; v < 3; ++v) {
    sinks_.push_back(std::make_unique<Recorder>(queue_));
    net_->attach(v, sinks_.back().get());
    net_->join(1, v);
  }
  net_->multicast(0, make_packet(1, /*ttl=*/5));
  queue_.run();
  EXPECT_EQ(sinks_[1]->received.size(), 1u);
  EXPECT_TRUE(sinks_[2]->received.empty());  // 5 - 1 hop = 4 < threshold 10

  net_->multicast(0, make_packet(1, /*ttl=*/11));
  queue_.run();
  EXPECT_EQ(sinks_[2]->received.size(), 1u);  // 11 - 1 = 10 >= 10
}

TEST_F(NetworkTest, AdminScopeConfinedToRegion) {
  build_chain(4);
  topo_->set_admin_region(0, 1);
  topo_->set_admin_region(1, 1);
  topo_->set_admin_region(2, 2);
  topo_->set_admin_region(3, 2);
  for (NodeId v = 0; v < 4; ++v) net_->join(1, v);
  Packet p = make_packet(1);
  p.scope = Scope::kAdmin;
  net_->multicast(0, p);
  queue_.run();
  EXPECT_EQ(sinks_[1]->received.size(), 1u);
  EXPECT_TRUE(sinks_[2]->received.empty());
  EXPECT_TRUE(sinks_[3]->received.empty());
}

TEST_F(NetworkTest, DropPrunesSubtree) {
  build_chain(5);
  for (NodeId v = 0; v < 5; ++v) net_->join(1, v);
  auto drop = std::make_shared<ScriptedLinkDrop>(
      2, 3, [](const Packet&) { return true; });
  net_->set_drop_policy(drop);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_EQ(sinks_[1]->received.size(), 1u);
  EXPECT_EQ(sinks_[2]->received.size(), 1u);
  EXPECT_TRUE(sinks_[3]->received.empty());
  EXPECT_TRUE(sinks_[4]->received.empty());  // pruned below the drop
  EXPECT_EQ(net_->stats().drops, 1u);
}

// Records every hop it is consulted on; never drops.
class HopLog final : public DropPolicy {
 public:
  bool should_drop(const Packet&, const HopContext& hop) override {
    hops.emplace_back(hop.from, hop.to);
    return false;
  }
  std::vector<std::pair<NodeId, NodeId>> hops;
};

TEST_F(NetworkTest, FaultSlotConsultedOnlyWhenPrimaryPasses) {
  // First match: the fault slot sees a hop only if the primary policy let
  // it through, so a scripted round drop does not also advance burst-loss
  // state on the hop it already dropped (nor on the pruned subtree).
  build_chain(5);
  for (NodeId v = 0; v < 5; ++v) net_->join(1, v);
  net_->set_drop_policy(std::make_shared<ScriptedLinkDrop>(
      2, 3, [](const Packet&) { return true; }));
  auto fault = std::make_shared<HopLog>();
  net_->set_fault_drop_policy(fault);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_EQ(fault->hops,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}}));
  EXPECT_EQ(net_->stats().drops, 1u);
  EXPECT_EQ(sinks_[2]->received.size(), 1u);
  EXPECT_TRUE(sinks_[3]->received.empty());
}

TEST_F(NetworkTest, UnicastFollowsShortestPath) {
  build_chain(4);
  net_->multicast(0, make_packet(1));  // no members: no deliveries
  net_->unicast(0, 3, make_packet(1));
  queue_.run();
  ASSERT_EQ(sinks_[3]->received.size(), 1u);
  EXPECT_DOUBLE_EQ(sinks_[3]->received[0].info.path_delay, 3.0);
  EXPECT_EQ(net_->stats().unicasts_sent, 1u);
}

TEST_F(NetworkTest, UnicastSubjectToDrops) {
  build_chain(4);
  auto drop = std::make_shared<ScriptedLinkDrop>(
      1, 2, [](const Packet&) { return true; });
  net_->set_drop_policy(drop);
  net_->unicast(0, 3, make_packet(1));
  queue_.run();
  EXPECT_TRUE(sinks_[3]->received.empty());
}

TEST_F(NetworkTest, LinkFailureInvalidatesUnicastInFlight) {
  build_chain(4);
  net_->unicast(0, 3, make_packet(1));
  EXPECT_EQ(net_->stats().deliveries, 1u);
  net_->invalidate_in_flight(topo_->link_between(1, 2));
  queue_.run();
  EXPECT_TRUE(sinks_[3]->received.empty());
  EXPECT_EQ(net_->stats().deliveries, 0u);
  EXPECT_EQ(net_->stats().in_flight_invalidated, 1u);
}

TEST_F(NetworkTest, DetachBeforeArrivalInvalidatesUnicast) {
  build_chain(4);
  net_->unicast(0, 3, make_packet(1));
  EXPECT_EQ(net_->stats().deliveries, 1u);
  queue_.schedule_at(1.0, [&] { net_->detach(3); });
  queue_.run();
  EXPECT_TRUE(sinks_[3]->received.empty());
  EXPECT_EQ(net_->stats().deliveries, 0u);
  EXPECT_EQ(net_->stats().in_flight_invalidated, 1u);
}

TEST_F(NetworkTest, SimultaneousUnicastAndMulticastFireInSendOrder) {
  build_chain(4);
  net_->join(1, 3);
  const auto tagged = [](int tag) {
    Packet p = make_packet(1);
    p.payload = std::make_shared<TestMessage>(tag);
    return p;
  };
  net_->multicast(0, tagged(1));
  net_->unicast(0, 3, tagged(2));
  net_->multicast(0, tagged(3));
  queue_.run();
  const auto& rx = sinks_[3]->received;
  ASSERT_EQ(rx.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(rx[i].at, 3.0);
    EXPECT_EQ(static_cast<const TestMessage&>(*rx[i].packet.payload).tag(),
              i + 1);
  }
}

TEST_F(NetworkTest, DeliveryTimingMatchesLinkDelays) {
  topo_ = std::make_unique<Topology>(3);
  topo_->add_link(0, 1, 1.5);
  topo_->add_link(1, 2, 2.5);
  net_ = std::make_unique<MulticastNetwork>(queue_, *topo_);
  for (NodeId v = 0; v < 3; ++v) {
    sinks_.push_back(std::make_unique<Recorder>(queue_));
    net_->attach(v, sinks_.back().get());
    net_->join(1, v);
  }
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_DOUBLE_EQ(sinks_[1]->received[0].at, 1.5);
  EXPECT_DOUBLE_EQ(sinks_[2]->received[0].at, 4.0);
}

TEST_F(NetworkTest, MembershipChangeRevalidatesMemberCounts) {
  build_chain(4);
  net_->join(1, 1);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_TRUE(sinks_[3]->received.empty());
  net_->join(1, 3);  // membership change must recount the members below
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_EQ(sinks_[3]->received.size(), 1u);
}

TEST_F(NetworkTest, JoinLeaveMidRunRevalidatesMemberCounts) {
  // Membership changes from *inside* scheduled events (agents joining and
  // leaving while traffic is in flight) must invalidate the cached member
  // counts for subsequent multicasts.
  build_chain(5);
  net_->join(1, 2);
  net_->join(1, 4);
  net_->multicast(0, make_packet(1));  // counts group 1's members
  queue_.schedule_at(10.0, [&] {
    net_->leave(1, 4);
    net_->join(1, 3);
    net_->multicast(0, make_packet(1));
  });
  queue_.run();
  EXPECT_EQ(sinks_[2]->received.size(), 2u);
  EXPECT_EQ(sinks_[3]->received.size(), 1u);  // joined mid-run
  EXPECT_EQ(sinks_[4]->received.size(), 1u);  // left mid-run
}

TEST_F(NetworkTest, RejoinAfterLeaveRestoresDelivery) {
  build_chain(3);
  net_->join(1, 2);
  net_->leave(1, 2);
  net_->join(1, 2);
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_EQ(sinks_[2]->received.size(), 1u);
  EXPECT_EQ(net_->members(1), (std::vector<NodeId>{2}));
}

TEST_F(NetworkTest, MembersStaySortedUnderChurn) {
  build_chain(6);
  for (NodeId v : {5u, 1u, 3u, 0u, 4u, 2u}) net_->join(1, v);
  EXPECT_EQ(net_->members(1), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  net_->leave(1, 3);
  net_->leave(1, 0);
  EXPECT_EQ(net_->members(1), (std::vector<NodeId>{1, 2, 4, 5}));
  net_->join(1, 3);
  EXPECT_EQ(net_->members(1), (std::vector<NodeId>{1, 2, 3, 4, 5}));
  // Duplicate join / spurious leave are no-ops.
  net_->join(1, 3);
  net_->leave(1, 0);
  EXPECT_EQ(net_->members(1), (std::vector<NodeId>{1, 2, 3, 4, 5}));
}

TEST_F(NetworkTest, OneMulticastSharesOnePacketAcrossReceivers) {
  build_chain(4);
  for (NodeId v = 0; v < 4; ++v) net_->join(1, v);
  net_->multicast(0, make_packet(1));
  queue_.run();
  // All receivers observe the same immutable payload instance.
  const Message* payload = sinks_[1]->received[0].packet.payload.get();
  EXPECT_EQ(sinks_[2]->received[0].packet.payload.get(), payload);
  EXPECT_EQ(sinks_[3]->received[0].packet.payload.get(), payload);
}

TEST_F(NetworkTest, ObserversSeeTraffic) {
  build_chain(3);
  net_->join(1, 2);
  int sends = 0, deliveries = 0;
  net_->set_send_observer([&](NodeId, const Packet&) { ++sends; });
  net_->set_delivery_observer(
      [&](const Packet&, const DeliveryInfo&) { ++deliveries; });
  net_->multicast(0, make_packet(1));
  queue_.run();
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(deliveries, 1);
}

TEST_F(NetworkTest, StatsCountLinkTransmissions) {
  build_chain(5);
  net_->join(1, 4);
  net_->reset_stats();
  net_->multicast(0, make_packet(1));
  queue_.run();
  // Only the path 0->4 is traversed (member-pruned tree): 4 link hops.
  EXPECT_EQ(net_->stats().link_transmissions, 4u);
  EXPECT_EQ(net_->stats().deliveries, 1u);
}

TEST(NetworkPdesTest, SimultaneousRemoteChainsFireInOriginOrder) {
  // Chains from regions 0 and 1 reach node 2 (region 2) at the same instant.
  // Region 1 sends first (t = 0.25, 1.25 s away) and region 0 sends two at
  // t = 0.5 (1 s away); the destination fires them in (origin region,
  // origin seq) order, not send order, at every worker count.
  const auto run_with = [](unsigned threads) {
    Topology topo(3);
    topo.add_link(0, 2, 1.0);
    topo.add_link(1, 2, 1.25);
    RegionMap map;
    map.of = {0, 1, 2};
    map.count = 3;
    map.lookahead = 1.0;
    sim::ParallelKernel kernel(3, map.lookahead);
    std::vector<std::unique_ptr<MulticastNetwork>> nets;
    std::vector<MulticastNetwork*> peers;
    for (std::size_t r = 0; r < 3; ++r) {
      nets.push_back(
          std::make_unique<MulticastNetwork>(kernel.region_queue(r), topo));
      peers.push_back(nets.back().get());
    }
    for (std::uint32_t r = 0; r < 3; ++r) {
      nets[r]->enable_pdes(&kernel, &map, r, peers);
    }
    Recorder sink(kernel.region_queue(2));
    nets[2]->attach(2, &sink);
    nets[2]->join(1, 2);
    const auto tagged = [](int tag) {
      Packet p = make_packet(1);
      p.payload = std::make_shared<TestMessage>(tag);
      return p;
    };
    kernel.region_queue(1).schedule_at(
        0.25, [&] { nets[1]->multicast(1, tagged(3)); });
    kernel.region_queue(0).schedule_at(0.5, [&] {
      nets[0]->multicast(0, tagged(1));
      nets[0]->multicast(0, tagged(2));
    });
    kernel.run(threads);
    EXPECT_EQ(kernel.total_stats().messages, 3u);
    std::vector<std::pair<double, int>> order;
    for (const Recorder::Rx& rx : sink.received) {
      order.emplace_back(
          rx.at, static_cast<const TestMessage&>(*rx.packet.payload).tag());
    }
    return order;
  };
  const auto one = run_with(1);
  EXPECT_EQ(one, (std::vector<std::pair<double, int>>{
                     {1.5, 1}, {1.5, 2}, {1.5, 3}}));
  EXPECT_EQ(run_with(3), one);
}

TEST_F(NetworkTest, AttachRejectsDuplicates) {
  build_chain(2);
  Recorder extra(queue_);
  EXPECT_THROW(net_->attach(0, &extra), std::logic_error);
  net_->detach(0);
  net_->attach(0, &extra);  // now fine
}

}  // namespace
}  // namespace srm::net
