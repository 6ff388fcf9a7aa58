// Tests for the sender-based unicast-NACK baseline (Sec. II-A strawman),
// including the ACK/NACK implosion SRM exists to prevent.
#include "srm/baseline.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "net/drop_policy.h"
#include "srm/messages.h"
#include "topo/builders.h"

namespace srm::baseline {
namespace {

class BaselineWorld {
 public:
  BaselineWorld(net::Topology topo, const std::vector<net::NodeId>& members,
                RepairMode mode = RepairMode::kUnicastToNacker,
                std::uint64_t seed = 1)
      : topo_(std::move(topo)), network_(queue_, topo_), rng_(seed) {
    for (net::NodeId n : members) {
      auto agent = std::make_unique<NackAgent>(
          network_, directory_, n, static_cast<SourceId>(n), 1, mode,
          rng_.fork());
      agent->start();
      by_node_[n] = agent.get();
      agents_.push_back(std::move(agent));
    }
  }

  NackAgent& at(net::NodeId n) { return *by_node_.at(n); }
  sim::EventQueue& queue() { return queue_; }
  net::MulticastNetwork& network() { return network_; }

 private:
  sim::EventQueue queue_;
  net::Topology topo_;
  net::MulticastNetwork network_;
  MemberDirectory directory_;
  util::Rng rng_;
  std::vector<std::unique_ptr<NackAgent>> agents_;
  std::map<net::NodeId, NackAgent*> by_node_;
};

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

std::shared_ptr<net::ScriptedLinkDrop> drop_seq0(net::NodeId from,
                                                 net::NodeId to) {
  return std::make_shared<net::ScriptedLinkDrop>(
      from, to, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      });
}

TEST(NackBaselineTest, LosslessDeliveryNeedsNoNacks) {
  BaselineWorld w(topo::make_chain(5), all_nodes(5));
  const PageId page{0, 0};
  w.at(0).send_data(page, {1});
  w.queue().run();
  for (net::NodeId n = 1; n < 5; ++n) {
    EXPECT_TRUE(w.at(n).has_data(DataName{0, page, 0}));
    EXPECT_EQ(w.at(n).stats().nacks_sent, 0u);
  }
}

TEST(NackBaselineTest, GapTriggersImmediateNackAndUnicastRepair) {
  BaselineWorld w(topo::make_chain(4), all_nodes(4));
  w.network().set_drop_policy(drop_seq0(2, 3));
  const PageId page{0, 0};
  w.at(0).send_data(page, {1});
  w.queue().schedule_after(1.0, [&] { w.at(0).send_data(page, {2}); });
  w.queue().run();
  EXPECT_TRUE(w.at(3).has_data(DataName{0, page, 0}));
  EXPECT_EQ(w.at(3).stats().nacks_sent, 1u);
  EXPECT_EQ(w.at(0).stats().nacks_received, 1u);
  EXPECT_EQ(w.at(0).stats().retransmissions, 1u);
  EXPECT_EQ(w.at(3).stats().recoveries, 1u);
}

TEST(NackBaselineTest, SharedLossImplodesAtSource) {
  // A star with the drop adjacent to the source: every other member NACKs,
  // and with unicast repairs the source retransmits once PER member.
  auto star = topo::make_star(20);
  BaselineWorld w(std::move(star.topo), star.leaves);
  w.network().set_drop_policy(drop_seq0(star.leaves[0], star.center));
  const PageId page{static_cast<SourceId>(star.leaves[0]), 0};
  w.at(star.leaves[0]).send_data(page, {1});
  w.queue().schedule_after(1.0,
                           [&] { w.at(star.leaves[0]).send_data(page, {2}); });
  w.queue().run();
  EXPECT_EQ(w.at(star.leaves[0]).stats().nacks_received, 19u);  // implosion
  EXPECT_EQ(w.at(star.leaves[0]).stats().retransmissions, 19u);
  for (std::size_t i = 1; i < star.leaves.size(); ++i) {
    EXPECT_TRUE(w.at(star.leaves[i]).has_data(DataName{
        static_cast<SourceId>(star.leaves[0]), page, 0}));
  }
}

TEST(NackBaselineTest, MulticastRepairModeDampsRetransmissions) {
  auto star = topo::make_star(20);
  BaselineWorld w(std::move(star.topo), star.leaves, RepairMode::kMulticast);
  w.network().set_drop_policy(drop_seq0(star.leaves[0], star.center));
  const PageId page{static_cast<SourceId>(star.leaves[0]), 0};
  w.at(star.leaves[0]).send_data(page, {1});
  w.queue().schedule_after(1.0,
                           [&] { w.at(star.leaves[0]).send_data(page, {2}); });
  w.queue().run();
  // Still 19 NACKs (the implosion is at the source's inbound side)...
  EXPECT_EQ(w.at(star.leaves[0]).stats().nacks_received, 19u);
  // ...but a single multicast retransmission answers them all.
  EXPECT_EQ(w.at(star.leaves[0]).stats().retransmissions, 1u);
}

TEST(NackBaselineTest, NackLossTriggersBackoffRetry) {
  // Drop the data AND the first NACK; the receiver's retransmit timer must
  // re-NACK and eventually recover.
  BaselineWorld w(topo::make_chain(3), all_nodes(3));
  auto composite = std::make_shared<net::CompositeDrop>();
  composite->add(drop_seq0(1, 2));
  composite->add(std::make_shared<net::ScriptedLinkDrop>(
      2, 1, [](const net::Packet& p) {
        return dynamic_cast<const NackMessage*>(p.payload.get()) != nullptr;
      }));
  w.network().set_drop_policy(composite);
  const PageId page{0, 0};
  w.at(0).send_data(page, {1});
  w.queue().schedule_after(1.0, [&] { w.at(0).send_data(page, {2}); });
  w.queue().run();
  EXPECT_TRUE(w.at(2).has_data(DataName{0, page, 0}));
  EXPECT_EQ(w.at(2).stats().nacks_sent, 2u);
}

TEST(NackBaselineTest, RecoveryDelayAtLeastOneRtt) {
  // Unicast NACK + unicast repair is inherently >= 1 RTT to the source —
  // the bound SRM's nearby repairs beat (Sec. IV-A).
  BaselineWorld w(topo::make_chain(8), all_nodes(8));
  w.network().set_drop_policy(drop_seq0(3, 4));
  const PageId page{0, 0};
  w.at(0).send_data(page, {1});
  w.queue().schedule_after(1.0, [&] { w.at(0).send_data(page, {2}); });
  w.queue().run();
  for (net::NodeId n = 4; n < 8; ++n) {
    const auto& s = w.at(n).stats();
    ASSERT_EQ(s.recovery_delay_rtt.count(), 1u) << n;
    EXPECT_GE(s.recovery_delay_rtt.values()[0], 1.0) << n;
  }
}

}  // namespace
}  // namespace srm::baseline
