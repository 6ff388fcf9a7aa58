#include "net/topology.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace srm::net {
namespace {

TEST(TopologyTest, StartsWithIsolatedNodes) {
  Topology t(3);
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_TRUE(t.neighbors(0).empty());
}

TEST(TopologyTest, AddNodeReturnsSequentialIds) {
  Topology t;
  EXPECT_EQ(t.add_node(), 0u);
  EXPECT_EQ(t.add_node(), 1u);
  EXPECT_EQ(t.node_count(), 2u);
}

TEST(TopologyTest, AddLinkIsBidirectional) {
  Topology t(2);
  const LinkId id = t.add_link(0, 1, 2.5, 3);
  EXPECT_EQ(t.link_count(), 1u);
  ASSERT_EQ(t.neighbors(0).size(), 1u);
  ASSERT_EQ(t.neighbors(1).size(), 1u);
  EXPECT_EQ(t.neighbors(0)[0].peer, 1u);
  EXPECT_EQ(t.neighbors(1)[0].peer, 0u);
  EXPECT_DOUBLE_EQ(t.neighbors(0)[0].delay, 2.5);
  EXPECT_EQ(t.neighbors(0)[0].threshold, 3);
  EXPECT_EQ(t.link(id).a, 0u);
  EXPECT_EQ(t.link(id).b, 1u);
}

TEST(TopologyTest, RejectsBadLinks) {
  Topology t(2);
  EXPECT_THROW(t.add_link(0, 0), std::invalid_argument);      // self loop
  EXPECT_THROW(t.add_link(0, 5), std::out_of_range);          // bad node
  EXPECT_THROW(t.add_link(0, 1, -1.0), std::invalid_argument);  // bad delay
  EXPECT_THROW(t.add_link(0, 1, 1.0, 0), std::invalid_argument);  // threshold
  t.add_link(0, 1);
  EXPECT_THROW(t.add_link(1, 0), std::invalid_argument);  // duplicate
}

TEST(TopologyTest, RejectsNonFiniteDelay) {
  // NaN fails `delay <= 0.0` too, so it needs its own check; a walk would
  // otherwise sum it into an event time and throw mid-send.
  Topology t(3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(t.add_link(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(t.add_link(1, 2, inf), std::invalid_argument);
  EXPECT_THROW(t.add_link(1, 2, -inf), std::invalid_argument);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_EQ(t.version(), 0u);
  t.add_link(0, 1, 0.5);
  EXPECT_EQ(t.link_count(), 1u);
}

TEST(TopologyTest, LinkBetweenFindsLink) {
  Topology t(3);
  t.add_link(0, 1);
  const LinkId id = t.add_link(1, 2);
  EXPECT_EQ(t.link_between(1, 2), id);
  EXPECT_EQ(t.link_between(2, 1), id);
  EXPECT_THROW(t.link_between(0, 2), std::invalid_argument);
}

TEST(TopologyTest, AdminRegionsDefaultZero) {
  Topology t(2);
  EXPECT_EQ(t.admin_region(0), 0u);
  t.set_admin_region(1, 7);
  EXPECT_EQ(t.admin_region(1), 7u);
}

TEST(TopologyTest, ConnectivityDetection) {
  Topology t(4);
  EXPECT_FALSE(t.connected());
  t.add_link(0, 1);
  t.add_link(2, 3);
  EXPECT_FALSE(t.connected());
  t.add_link(1, 2);
  EXPECT_TRUE(t.connected());
}

TEST(TopologyTest, EmptyTopologyIsConnected) {
  Topology t;
  EXPECT_TRUE(t.connected());
}

TEST(TopologyTest, DegreeCountsIncidentLinks) {
  Topology t(4);
  t.add_link(0, 1);
  t.add_link(0, 2);
  t.add_link(0, 3);
  EXPECT_EQ(t.degree(0), 3u);
  EXPECT_EQ(t.degree(1), 1u);
}

TEST(TopologyTest, VersionBumpsOnEveryStructuralMutation) {
  // version() is the key every cached tree is checked against, so each
  // mutation that can change a tree must move it, and a no-op must not.
  Topology t(2);
  std::uint64_t v = t.version();
  const LinkId l = t.add_link(0, 1);
  EXPECT_EQ(t.version(), ++v);
  t.add_node();
  EXPECT_EQ(t.version(), ++v);
  t.set_link_up(l, false);
  EXPECT_EQ(t.version(), ++v);
  t.set_link_up(l, false);  // already down
  EXPECT_EQ(t.version(), v);
  t.set_link_up(l, true);
  EXPECT_EQ(t.version(), ++v);
}

}  // namespace
}  // namespace srm::net
