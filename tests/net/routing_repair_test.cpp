// Randomized equivalence tests for incremental SPT repair: after any
// sequence of link down/up/add dynamics, a repaired tree must be
// bit-identical to a fresh Dijkstra over the same topology — dist, hops,
// parent, parent_link, and children order (the sibling lists) alike.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "net/routing.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace srm::net {
namespace {

void expect_identical(const Spt& repaired, const Spt& fresh,
                      const std::string& context) {
  ASSERT_EQ(repaired.root, fresh.root) << context;
  ASSERT_EQ(repaired.dist.size(), fresh.dist.size()) << context;
  for (NodeId v = 0; v < fresh.dist.size(); ++v) {
    SCOPED_TRACE(context + ", node " + std::to_string(v));
    // Exact equality on purpose: the repair contract is bit-identical
    // trees (infinity == infinity holds under IEEE comparison).
    EXPECT_EQ(repaired.dist[v], fresh.dist[v]);
    EXPECT_EQ(repaired.hops[v], fresh.hops[v]);
    EXPECT_EQ(repaired.parent[v], fresh.parent[v]);
    EXPECT_EQ(repaired.parent_link[v], fresh.parent_link[v]);
    EXPECT_EQ(repaired.first_child[v], fresh.first_child[v]);
    EXPECT_EQ(repaired.next_sibling[v], fresh.next_sibling[v]);
  }
}

// Compares every source's repaired tree against a Routing built fresh on
// the current topology (its first query is always a full Dijkstra).
void expect_all_sources_identical(Routing& cached, const Topology& topo,
                                  const std::string& context) {
  Routing fresh(topo);
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    expect_identical(cached.spt(src), fresh.spt(src),
                     context + ", source " + std::to_string(src));
  }
}

std::vector<LinkId> up_links(const Topology& topo) {
  std::vector<LinkId> ids;
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    if (topo.link_up(id)) ids.push_back(id);
  }
  return ids;
}

std::vector<LinkId> down_links(const Topology& topo) {
  std::vector<LinkId> ids;
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    if (!topo.link_up(id)) ids.push_back(id);
  }
  return ids;
}

// Applies `steps` random batches of link dynamics to `topo`, repairing all
// cached trees after each batch and checking them against fresh Dijkstras.
void churn_and_check(Topology& topo, util::Rng& rng, int steps,
                     const std::string& label) {
  Routing r(topo);
  r.set_verify(true);  // belt and braces: internal cross-check too
  for (NodeId src = 0; src < topo.node_count(); ++src) r.spt(src);

  for (int step = 0; step < steps; ++step) {
    // A batch of 1-4 mutations: mostly downs/ups, occasionally a new link.
    const int mutations = 1 + static_cast<int>(rng.index(4));
    for (int m = 0; m < mutations; ++m) {
      const double coin = rng.uniform(0.0, 1.0);
      if (coin < 0.45) {
        const auto ups = up_links(topo);
        if (!ups.empty()) {
          topo.set_link_up(ups[rng.index(ups.size())], false);
        }
      } else if (coin < 0.9) {
        const auto downs = down_links(topo);
        if (!downs.empty()) {
          topo.set_link_up(downs[rng.index(downs.size())], true);
        }
      } else {
        const auto a = static_cast<NodeId>(rng.index(topo.node_count()));
        const auto b = static_cast<NodeId>(rng.index(topo.node_count()));
        if (a != b) {
          try {
            topo.add_link(a, b, 0.5 + rng.uniform(0.0, 3.0));
          } catch (const std::invalid_argument&) {
            // duplicate link; skip
          }
        }
      }
    }
    expect_all_sources_identical(r, topo,
                                 label + ", step " + std::to_string(step));
  }
  EXPECT_GT(r.stats().repairs, 0u) << label;
}

TEST(RoutingRepairTest, RandomTreeChurnMatchesFreshDijkstra) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    util::Rng rng(seed);
    Topology topo = topo::make_random_tree(24, rng);
    churn_and_check(topo, rng, 12, "tree seed " + std::to_string(seed));
  }
}

TEST(RoutingRepairTest, RandomGraphChurnMatchesFreshDijkstra) {
  for (const std::uint64_t seed : {5u, 29u, 123u}) {
    util::Rng rng(seed);
    Topology topo = topo::make_random_graph(20, 34, rng);
    churn_and_check(topo, rng, 12, "graph seed " + std::to_string(seed));
  }
}

TEST(RoutingRepairTest, GrowingTopologyMatchesFreshDijkstra) {
  util::Rng rng(7);
  Topology topo = topo::make_random_tree(10, rng);
  Routing r(topo);
  r.set_verify(true);
  for (NodeId src = 0; src < topo.node_count(); ++src) r.spt(src);
  for (int step = 0; step < 8; ++step) {
    const NodeId fresh_node = topo.add_node();
    const auto anchor = static_cast<NodeId>(rng.index(fresh_node));
    topo.add_link(anchor, fresh_node, 1.0 + rng.uniform(0.0, 2.0));
    expect_all_sources_identical(r, topo, "grow step " + std::to_string(step));
  }
  EXPECT_GT(r.stats().repairs, 0u);
}

TEST(RoutingRepairTest, PartitionHealRoundTripRestoresOriginalTrees) {
  util::Rng rng(41);
  Topology topo = topo::make_random_tree(30, rng);
  Routing r(topo);
  r.set_verify(true);

  std::vector<Spt> original;
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    original.push_back(r.spt(src));
  }

  // Cut an island {0..9} off: every up link with one endpoint inside.
  std::vector<LinkId> cut;
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    const Link& l = topo.link(id);
    if (!l.up) continue;
    if ((l.a < 10) != (l.b < 10)) cut.push_back(id);
  }
  ASSERT_FALSE(cut.empty());
  for (LinkId id : cut) topo.set_link_up(id, false);
  expect_all_sources_identical(r, topo, "partitioned");

  for (LinkId id : cut) topo.set_link_up(id, true);
  Routing fresh(topo);
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    expect_identical(r.spt(src), original[src],
                     "healed vs original, source " + std::to_string(src));
    expect_identical(r.spt(src), fresh.spt(src),
                     "healed vs fresh, source " + std::to_string(src));
  }
  EXPECT_GT(r.stats().repairs, 0u);
}

TEST(RoutingRepairTest, ThresholdZeroForcesFullRebuild) {
  util::Rng rng(11);
  Topology topo = topo::make_random_graph(12, 20, rng);
  Routing r(topo);
  r.set_repair_threshold(0);
  r.spt(0);
  const auto ups = up_links(topo);
  topo.set_link_up(ups.front(), false);
  r.spt(0);
  EXPECT_EQ(r.stats().repairs, 0u);
  EXPECT_EQ(r.stats().fallback_threshold, 1u);
  EXPECT_EQ(r.stats().full_builds, 2u);
}

TEST(RoutingRepairTest, TruncatedJournalForcesFullRebuild) {
  util::Rng rng(13);
  Topology topo = topo::make_random_graph(12, 20, rng);
  topo.set_journal_capacity(2);
  Routing r(topo);
  r.spt(0);
  const auto ups = up_links(topo);
  for (int i = 0; i < 3; ++i) {
    topo.set_link_up(ups[static_cast<std::size_t>(i)], false);
  }
  const Spt& repaired = r.spt(0);
  Routing fresh(topo);
  expect_identical(repaired, fresh.spt(0), "after truncation");
  EXPECT_EQ(r.stats().repairs, 0u);
  EXPECT_EQ(r.stats().fallback_truncated, 1u);
}

TEST(RoutingRepairTest, RepairDisabledMatchesLegacyBehavior) {
  util::Rng rng(19);
  Topology topo = topo::make_random_tree(15, rng);
  Routing r(topo);
  r.set_repair_enabled(false);
  r.spt(0);
  topo.set_link_up(0, false);
  Routing fresh(topo);
  expect_identical(r.spt(0), fresh.spt(0), "repair disabled");
  EXPECT_EQ(r.stats().repairs, 0u);
}

}  // namespace
}  // namespace srm::net
