#include "harness/fault_scenarios.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "harness/session.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace srm::harness {
namespace {

SimSession make_session(std::size_t nodes, std::vector<net::NodeId> members,
                        std::uint64_t seed = 5) {
  SrmConfig cfg;
  return SimSession(topo::make_chain(nodes), std::move(members),
                    {cfg, seed, /*group=*/1});
}

TEST(SimSessionMembershipTest, AddAndRemoveMembersKeepIndexConsistent) {
  SimSession s = make_session(6, {0, 2, 4});
  EXPECT_TRUE(s.has_member(2));
  EXPECT_FALSE(s.has_member(3));

  s.add_member(3);
  EXPECT_TRUE(s.has_member(3));
  EXPECT_EQ(s.member_count(), 4u);
  EXPECT_EQ(&s.agent_at(3), &s.agent_at(3));

  s.remove_member(2, /*graceful=*/true);
  EXPECT_FALSE(s.has_member(2));
  EXPECT_EQ(s.member_count(), 3u);
  // Members added after the erase point are still addressable.
  EXPECT_NO_THROW(s.agent_at(0));
  EXPECT_NO_THROW(s.agent_at(3));
  EXPECT_NO_THROW(s.agent_at(4));
  EXPECT_THROW(s.agent_at(2), std::out_of_range);

  EXPECT_THROW(s.add_member(3), std::logic_error);  // duplicate
  EXPECT_THROW(s.remove_member(2), std::out_of_range);
}

TEST(MembershipHooksTest, JoinAndLeaveAreIdempotent) {
  SimSession s = make_session(4, {0, 1});
  fault::MembershipHooks hooks = membership_hooks(s);
  hooks.join(2);
  EXPECT_TRUE(s.has_member(2));
  hooks.join(2);  // already present: no-op, no throw
  EXPECT_EQ(s.member_count(), 3u);
  hooks.leave(2, false);
  EXPECT_FALSE(s.has_member(2));
  hooks.leave(2, false);  // already gone: no-op
  EXPECT_EQ(s.member_count(), 2u);
}

TEST(PartitionHealPlanTest, IslandExcludesRootAndPlanHasOnePartition) {
  util::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const net::Topology topo = topo::make_random_tree(30, rng);
    std::vector<net::NodeId> island;
    const fault::FaultPlan plan =
        partition_heal_plan(topo, /*root=*/0, 10.0, 20.0, rng, &island);
    EXPECT_EQ(plan.partition_count(), 1u);
    EXPECT_EQ(plan.size(), 2u);
    ASSERT_FALSE(island.empty());
    EXPECT_EQ(std::find(island.begin(), island.end(), 0), island.end())
        << "root must stay on the surviving side";
  }
}

TEST(ChurnPlanTest, SparesTheKeptMemberAndPairsRejoins) {
  util::Rng rng(3);
  const std::vector<net::NodeId> members{1, 2, 3, 4, 5};
  const fault::FaultPlan plan = churn_plan(members, /*keep=*/3, /*cycles=*/8,
                                           10.0, 100.0, /*downtime=*/5.0,
                                           /*crash=*/true, rng);
  ASSERT_EQ(plan.size(), 16u);  // crash + rejoin per cycle
  for (std::size_t i = 0; i < plan.size(); i += 2) {
    const auto& crash = plan.events()[i];
    const auto& rejoin = plan.events()[i + 1];
    EXPECT_EQ(crash.kind, fault::FaultEvent::Kind::kCrash);
    EXPECT_EQ(rejoin.kind, fault::FaultEvent::Kind::kRejoin);
    EXPECT_EQ(crash.node, rejoin.node);
    EXPECT_NE(crash.node, 3u);
    EXPECT_DOUBLE_EQ(rejoin.at, crash.at + 5.0);
    EXPECT_GE(crash.at, 10.0);
    EXPECT_LT(crash.at, 100.0);
  }
}

TEST(ChurnPlanTest, RejectsEmptyPool) {
  util::Rng rng(1);
  EXPECT_THROW(churn_plan({7}, /*keep=*/7, 1, 0.0, 1.0, 0.5, false, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace srm::harness
