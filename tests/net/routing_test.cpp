#include "net/routing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "topo/builders.h"
#include "util/rng.h"

namespace srm::net {
namespace {

TEST(RoutingTest, ChainDistancesAreHopCounts) {
  Topology t = topo::make_chain(5);
  Routing r(t);
  EXPECT_DOUBLE_EQ(r.distance(0, 4), 4.0);
  EXPECT_DOUBLE_EQ(r.distance(2, 2), 0.0);
  EXPECT_EQ(r.hop_count(0, 4), 4);
}

TEST(RoutingTest, DistanceIsSymmetric) {
  util::Rng rng(5);
  Topology t = topo::make_random_tree(40, rng);
  Routing r(t);
  for (NodeId a = 0; a < 40; a += 7) {
    for (NodeId b = 0; b < 40; b += 5) {
      EXPECT_DOUBLE_EQ(r.distance(a, b), r.distance(b, a));
    }
  }
}

TEST(RoutingTest, WeightedShortestPathPreferred) {
  // 0 -10- 1, 0 -1- 2 -1- 1: the two-hop path is shorter.
  Topology t(3);
  t.add_link(0, 1, 10.0);
  t.add_link(0, 2, 1.0);
  t.add_link(2, 1, 1.0);
  Routing r(t);
  EXPECT_DOUBLE_EQ(r.distance(0, 1), 2.0);
  EXPECT_EQ(r.hop_count(0, 1), 2);
  const auto p = r.path(0, 1);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[1], 2u);
}

TEST(RoutingTest, TieBreakPrefersFewerHops) {
  // Two equal-delay routes 0->3: direct (delay 2) vs via 1,2 (1+0.5+0.5).
  Topology t(4);
  t.add_link(0, 3, 2.0);
  t.add_link(0, 1, 1.0);
  t.add_link(1, 2, 0.5);
  t.add_link(2, 3, 0.5);
  Routing r(t);
  EXPECT_DOUBLE_EQ(r.distance(0, 3), 2.0);
  EXPECT_EQ(r.hop_count(0, 3), 1);
}

TEST(RoutingTest, SptChildrenPartitionTree) {
  Topology t = topo::make_bounded_degree_tree(15, 3);
  Routing r(t);
  const Spt& spt = r.spt(0);
  std::size_t edge_count = 0;
  for (NodeId v = 0; v < t.node_count(); ++v) {
    for (NodeId c = spt.first_child[v]; c != kInvalidNode;
         c = spt.next_sibling[c]) {
      ASSERT_LT(edge_count, t.node_count());  // no list may cycle
      EXPECT_EQ(spt.parent[c], v);
      ++edge_count;
    }
  }
  EXPECT_EQ(edge_count, t.node_count() - 1);  // spanning tree
  EXPECT_EQ(spt.parent[0], 0u);               // root parents itself
}

TEST(RoutingTest, PathEndpoints) {
  Topology t = topo::make_chain(6);
  Routing r(t);
  const auto p = r.path(1, 4);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.front(), 1u);
  EXPECT_EQ(p.back(), 4u);
  EXPECT_EQ(p[1], 2u);
  EXPECT_EQ(p[2], 3u);
}

TEST(RoutingTest, PathToSelf) {
  Topology t = topo::make_chain(3);
  Routing r(t);
  const auto p = r.path(1, 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 1u);
}

TEST(RoutingTest, UnreachableThrows) {
  Topology t(3);
  t.add_link(0, 1);
  Routing r(t);
  EXPECT_THROW(r.distance(0, 2), std::runtime_error);
  EXPECT_THROW(r.path(0, 2), std::runtime_error);
}

TEST(RoutingTest, DeterministicAcrossCalls) {
  util::Rng rng(17);
  Topology t = topo::make_random_graph(30, 45, rng);
  Routing r1(t), r2(t);
  for (NodeId v = 0; v < 30; ++v) {
    EXPECT_DOUBLE_EQ(r1.distance(0, v), r2.distance(0, v));
    EXPECT_EQ(r1.spt(0).parent[v], r2.spt(0).parent[v]);
  }
}

TEST(RoutingTest, JournalRepairPicksUpAddedLink) {
  Topology t(3);
  t.add_link(0, 1, 5.0);
  t.add_link(1, 2, 5.0);
  Routing r(t);
  r.set_verify(true);  // cross-check the repair against a fresh Dijkstra
  EXPECT_DOUBLE_EQ(r.distance(0, 2), 10.0);
  t.add_link(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(r.distance(0, 2), 1.0);
  EXPECT_EQ(r.stats().repairs, 1u);
  EXPECT_EQ(r.stats().verified, 1u);
}

TEST(RoutingTest, TryDistanceReadsUnreachableAsInfinity) {
  Topology t(3);
  t.add_link(0, 1);
  const LinkId cut = t.add_link(1, 2);
  Routing r(t);
  EXPECT_DOUBLE_EQ(r.try_distance(0, 2), 2.0);
  EXPECT_EQ(r.try_hop_count(0, 2), 2);
  t.set_link_up(cut, false);
  EXPECT_TRUE(std::isinf(r.try_distance(0, 2)));
  EXPECT_EQ(r.try_hop_count(0, 2), -1);
  t.set_link_up(cut, true);
  EXPECT_DOUBLE_EQ(r.try_distance(0, 2), 2.0);
}

TEST(RoutingTest, VersionStampInvalidatesAutomatically) {
  // No explicit invalidate(): the cache revalidates against
  // Topology::version() on every spt() call.
  Topology t(3);
  t.add_link(0, 1, 5.0);
  const LinkId shortcut = t.add_link(1, 2, 5.0);
  Routing r(t);
  EXPECT_DOUBLE_EQ(r.distance(0, 2), 10.0);
  t.add_link(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(r.distance(0, 2), 1.0);
  t.set_link_up(shortcut, false);
  EXPECT_DOUBLE_EQ(r.distance(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(r.distance(1, 2), 6.0);  // rerouted around the down link
  t.set_link_up(shortcut, true);
  EXPECT_DOUBLE_EQ(r.distance(1, 2), 5.0);
}

TEST(RoutingTest, DownLinkPartitionsUnreachable) {
  Topology t(3);
  t.add_link(0, 1);
  const LinkId cut = t.add_link(1, 2);
  Routing r(t);
  EXPECT_EQ(r.hop_count(0, 2), 2);
  t.set_link_up(cut, false);
  EXPECT_THROW(r.distance(0, 2), std::runtime_error);
  EXPECT_THROW(r.path(0, 2), std::runtime_error);
  t.set_link_up(cut, true);
  EXPECT_EQ(r.hop_count(0, 2), 2);
}

TEST(RoutingTest, TriangleInequalityHolds) {
  util::Rng rng(23);
  Topology t = topo::make_random_graph(25, 40, rng);
  Routing r(t);
  for (NodeId a = 0; a < 25; a += 3) {
    for (NodeId b = 0; b < 25; b += 4) {
      for (NodeId c = 0; c < 25; c += 5) {
        EXPECT_LE(r.distance(a, c),
                  r.distance(a, b) + r.distance(b, c) + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace srm::net
