#include "harness/loss_round.h"

#include <gtest/gtest.h>

#include "topo/builders.h"

namespace srm::harness {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

SrmConfig fixed_cfg(std::size_t group) {
  SrmConfig cfg;
  cfg.timers = paper_fixed_params(group);
  return cfg;
}

TEST(LossRoundTest, AllAffectedMembersRecover) {
  SimSession s(topo::make_bounded_degree_tree(40, 4), all_nodes(40),
               {fixed_cfg(40), 3, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{1, 5};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_GT(r.affected, 0u);
  EXPECT_EQ(r.recovered, r.affected);
  EXPECT_GE(r.requests, 1u);
  EXPECT_GE(r.repairs, 1u);
  EXPECT_GT(r.max_delay_seconds, 0.0);
  EXPECT_GT(r.last_member_delay_rtt, 0.0);
}

TEST(LossRoundTest, UnaffectedMembersUntouched) {
  SimSession s(topo::make_chain(6), all_nodes(6), {fixed_cfg(6), 3, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{4, 5};
  spec.page = PageId{0, 0};
  run_loss_round(s, spec, 0);
  for (net::NodeId v = 1; v <= 4; ++v) {
    EXPECT_EQ(s.agent_at(v).metrics().losses_detected, 0u) << v;
    EXPECT_EQ(s.agent_at(v).metrics().requests_sent, 0u) << v;
  }
}

TEST(LossRoundTest, SequencedRoundsShareSession) {
  SimSession s(topo::make_chain(5), all_nodes(5), {fixed_cfg(5), 3, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{2, 3};
  spec.page = PageId{0, 0};
  for (int round = 0; round < 5; ++round) {
    const auto r = run_loss_round(s, spec, round * 2);
    EXPECT_EQ(r.affected, 2u) << round;
    EXPECT_EQ(r.recovered, 2u) << round;
  }
  EXPECT_EQ(s.agent_at(4).metrics().recoveries, 5u);
}

TEST(LossRoundTest, WrongSequenceThrows) {
  SimSession s(topo::make_chain(3), all_nodes(3), {fixed_cfg(3), 3, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{1, 2};
  spec.page = PageId{0, 0};
  // First round consumes seqs 0 and 1; asking for seq 0 again must fail.
  run_loss_round(s, spec, 0);
  EXPECT_THROW(run_loss_round(s, spec, 0), std::logic_error);
}

TEST(LossRoundTest, ClosestRequestDelayPopulated) {
  SimSession s(topo::make_chain(6), all_nodes(6), {fixed_cfg(6), 7, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{2, 3};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_TRUE(r.closest_request_delay_valid);
  EXPECT_GE(r.closest_request_delay_rtt, 0.0);
}

TEST(LossRoundTest, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    SimSession s(topo::make_bounded_degree_tree(30, 4), all_nodes(30),
                 {fixed_cfg(30), seed, 1});
    RoundSpec spec;
    spec.source_node = 0;
    spec.congested = DirectedLink{0, 1};
    spec.page = PageId{0, 0};
    return run_loss_round(s, spec, 0);
  };
  const auto a = run_once(11);
  const auto b = run_once(11);
  const auto c = run_once(12);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_DOUBLE_EQ(a.max_delay_seconds, b.max_delay_seconds);
  // A different seed should (almost surely) differ somewhere.
  EXPECT_TRUE(a.requests != c.requests || a.repairs != c.repairs ||
              a.max_delay_seconds != c.max_delay_seconds);
}

// Members crash and join while a round is in flight, which reorders the
// member list.  Each member's round-start snapshot must follow its node, not
// its position in that list; a member that joined during the round has no
// snapshot, so all of its samples are the round's.
TEST(LossRoundTest, ChurnDuringRoundKeepsSnapshotsWithTheirMembers) {
  // Chain 0-1-...-7 with the source at node 7, so lower ids lie further
  // downstream; node 0 starts outside the group.
  SimSession s(topo::make_chain(8), {1, 2, 3, 4, 5, 6, 7},
               {fixed_cfg(8), 3, 1});
  RoundSpec spec;
  spec.source_node = 7;
  spec.page = PageId{0, 0};
  spec.congested = DirectedLink{3, 2};
  const auto first = run_loss_round(s, spec, 0);
  ASSERT_EQ(first.affected, 2u);  // nodes 2 and 1
  ASSERT_EQ(first.recovered, 2u);

  // The second loss is one hop further upstream.  Before it is detected,
  // node 1 (first in the member list) crashes and node 0 joins.
  spec.congested = DirectedLink{4, 3};
  s.queue().schedule_after(0.05, [&s] { s.remove_member(1, false); });
  s.queue().schedule_after(0.1, [&s] { s.add_member(0); });
  const auto r = run_loss_round(s, spec, 2);
  EXPECT_EQ(r.affected, 3u);  // nodes 3, 2 and 0
  EXPECT_EQ(r.recovered, 3u);
  EXPECT_EQ(s.agent_at(3).metrics().recovery_delay_seconds.values().size(),
            1u);
  EXPECT_EQ(s.agent_at(2).metrics().recovery_delay_seconds.values().size(),
            2u);
}

TEST(LossRoundTest, LinkTransmissionsCounted) {
  SimSession s(topo::make_chain(4), all_nodes(4), {fixed_cfg(4), 3, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{2, 3};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_GT(r.link_transmissions, 0u);
}

}  // namespace
}  // namespace srm::harness
