// Tests for local recovery via separate multicast groups (Sec. VII-B.2).
#include "srm/local_groups.h"

#include <gtest/gtest.h>

#include <memory>

#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/messages.h"
#include "topo/builders.h"

namespace srm {
namespace {

constexpr net::GroupId kRecoveryBase = 1000;

SrmConfig cfg() {
  SrmConfig c;
  c.timers = TimerParams{1.0, 1.0, 1.0, 1.0};
  c.backoff_factor = 3.0;
  return c;
}

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

// A tail-circuit world: backbone chain 0..5, with members 4 and 5 behind a
// persistently lossy link (3,4).  Member 3 holds the data (upstream of the
// loss), so it is the natural repairer for the neighborhood.
struct TailWorld {
  explicit TailWorld(std::uint64_t seed)
      : session(topo::make_chain(6), all_nodes(6), {cfg(), seed, 1}) {
    for (net::NodeId n = 0; n < 6; ++n) {
      LocalGroupConfig lg;
      lg.invite_ttl = 3;
      managers.push_back(std::make_unique<LocalGroupManager>(
          session.agent_at(n), lg, kRecoveryBase));
    }
  }
  harness::SimSession session;
  std::vector<std::unique_ptr<LocalGroupManager>> managers;
};

// Drops every 3rd data packet on (3,4), modelling persistent congestion.
class EveryThirdDrop final : public net::DropPolicy {
 public:
  bool should_drop(const net::Packet& p, const net::HopContext& hop) override {
    if (hop.from != 3 || hop.to != 4) return false;
    if (dynamic_cast<const DataMessage*>(p.payload.get()) == nullptr) {
      return false;
    }
    return ++count_ % 3 == 1;
  }

 private:
  int count_ = 0;
};

TEST(LocalGroupTest, RepeatedLossesCreateRecoveryGroup) {
  TailWorld w(7);
  w.session.network().set_drop_policy(std::make_shared<EveryThirdDrop>());
  const PageId page{0, 0};
  for (int i = 0; i < 12; ++i) {
    w.session.agent_at(0).send_data(page, {static_cast<uint8_t>(i)});
    w.session.queue().run();
  }
  const StreamKey stream{0, page};
  // Member 4 (first behind the lossy link) triggered a group...
  EXPECT_TRUE(w.managers[4]->in_recovery_group(stream) ||
              w.managers[5]->in_recovery_group(stream));
  std::size_t invites = 0, joins = 0;
  for (const auto& m : w.managers) {
    invites += m->invites_sent();
    joins += m->groups_joined();
  }
  EXPECT_GE(invites, 1u);
  EXPECT_GE(joins, 1u);  // at least the fellow loser or the repairer joined
  // ...and everything was still fully recovered.
  for (net::NodeId n = 1; n < 6; ++n) {
    for (SeqNo q = 0; q < 12; ++q) {
      EXPECT_TRUE(w.session.agent_at(n).has_data(DataName{0, page, q}))
          << n << " " << q;
    }
  }
}

TEST(LocalGroupTest, RecoveryTrafficConfinedToGroup) {
  TailWorld w(8);
  w.session.network().set_drop_policy(std::make_shared<EveryThirdDrop>());
  const PageId page{0, 0};
  // Warm up until the group exists.
  int sent = 0;
  const StreamKey stream{0, page};
  while (sent < 30 && !w.managers[4]->in_recovery_group(stream)) {
    w.session.agent_at(0).send_data(page, {static_cast<uint8_t>(sent++)});
    w.session.queue().run();
  }
  ASSERT_TRUE(w.managers[4]->in_recovery_group(stream));

  // From now on, count recovery traffic reaching far members (0 and 1).
  std::size_t far_recovery_deliveries = 0;
  w.session.network().set_delivery_observer(
      [&](const net::Packet& p, const net::DeliveryInfo& info) {
        const bool recovery =
            dynamic_cast<const RequestMessage*>(p.payload.get()) != nullptr ||
            dynamic_cast<const RepairMessage*>(p.payload.get()) != nullptr;
        if (recovery && info.receiver <= 1) ++far_recovery_deliveries;
      });
  for (int i = 0; i < 12; ++i) {
    w.session.agent_at(0).send_data(page, {static_cast<uint8_t>(sent + i)});
    w.session.queue().run();
  }
  // Requests for the lossy stream now ride the recovery group, whose
  // membership is {4, 5, 3}; members 0 and 1 hear none of it.
  EXPECT_EQ(far_recovery_deliveries, 0u);
  // And losses keep being repaired.
  for (SeqNo q = 0; q < static_cast<SeqNo>(sent + 12); ++q) {
    EXPECT_TRUE(w.session.agent_at(5).has_data(DataName{0, page, q})) << q;
  }
}

TEST(LocalGroupTest, InviteIgnoredByUnrelatedMembers) {
  TailWorld w(9);
  w.session.network().set_drop_policy(std::make_shared<EveryThirdDrop>());
  const PageId page{0, 0};
  for (int i = 0; i < 12; ++i) {
    w.session.agent_at(0).send_data(page, {static_cast<uint8_t>(i)});
    w.session.queue().run();
  }
  // Member 0 (the source, far upstream, no shared losses) must not have
  // joined anyone's recovery group as a loser.
  EXPECT_FALSE(w.managers[0]->in_recovery_group(StreamKey{0, page}));
}

TEST(LocalGroupTest, EscalationStillReachesTheWholeSession) {
  // If the recovery group lacks a member with the data, the backed-off
  // request escalates to the session group and recovery still completes.
  TailWorld w(10);
  const PageId page{0, 0};
  // Manually wire members 4 and 5 into a recovery group containing no
  // repairer, then lose a packet for them.
  w.session.agent_at(4).join_extra_group(kRecoveryBase + 99);
  w.session.agent_at(5).join_extra_group(kRecoveryBase + 99);
  w.session.agent_at(4).set_request_group_policy(
      [](const DataName&) { return kRecoveryBase + 99; });
  w.session.agent_at(5).set_request_group_policy(
      [](const DataName&) { return kRecoveryBase + 99; });
  w.session.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      3, 4, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      }));
  w.session.agent_at(0).send_data(page, {1});
  w.session.queue().schedule_after(
      1.0, [&] { w.session.agent_at(0).send_data(page, {2}); });
  w.session.queue().run();
  EXPECT_TRUE(w.session.agent_at(4).has_data(DataName{0, page, 0}));
  EXPECT_TRUE(w.session.agent_at(5).has_data(DataName{0, page, 0}));
}

}  // namespace
}  // namespace srm
