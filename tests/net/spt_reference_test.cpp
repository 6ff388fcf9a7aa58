// Differential tests for the shortest-path tree builder: Routing's trees
// (sibling-list children, one shared POD-key heap) must equal, for every
// root, the trees of the original builder kept below as the reference — a
// std::priority_queue of std::tuple keys with one child vector per node.
// dist is compared bit for bit; hops, parent, parent_link and each node's
// child sequence exactly.  Every topology is checked as built and again with
// some links down (so that some nodes are unreachable), both by a fresh
// Routing and by one whose cached trees went stale through the link downs.
// The churn tests below do the same after every batch of random link downs,
// ups and additions, node growth, and a partition that heals back to the
// original trees: a stale cached tree must come back exactly as the
// reference builds it for the current graph.
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/routing.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace srm::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ReferenceSpt {
  NodeId root = kInvalidNode;
  std::vector<double> dist;
  std::vector<int> hops;
  std::vector<NodeId> parent;
  std::vector<LinkId> parent_link;
  std::vector<std::vector<NodeId>> children;
};

// The original Routing::compute(), verbatim but for its signature (a free
// function over `topo` returning ReferenceSpt).
ReferenceSpt reference_compute(const Topology& topo, NodeId src) {
  const std::size_t n = topo.node_count();

  ReferenceSpt t;
  t.root = src;
  t.dist.assign(n, kInf);
  t.hops.assign(n, -1);
  t.parent.assign(n, kInvalidNode);
  t.parent_link.assign(n, 0);
  t.children.assign(n, {});

  // Dijkstra with (dist, hops, node) keys: ties on distance are broken by
  // fewer hops then lower node id, giving a deterministic tree.
  using Key = std::tuple<double, int, NodeId>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> pq;
  t.dist[src] = 0.0;
  t.hops[src] = 0;
  t.parent[src] = src;
  pq.emplace(0.0, 0, src);

  std::vector<bool> done(n, false);
  while (!pq.empty()) {
    const auto [d, h, u] = pq.top();
    pq.pop();
    if (done[u]) continue;
    done[u] = true;
    for (const LinkEnd& e : topo.neighbors(u)) {
      const double nd = d + e.delay;
      const int nh = h + 1;
      const bool better =
          nd < t.dist[e.peer] ||
          (nd == t.dist[e.peer] &&
           (nh < t.hops[e.peer] ||
            (nh == t.hops[e.peer] && u < t.parent[e.peer])));
      if (!done[e.peer] && better) {
        t.dist[e.peer] = nd;
        t.hops[e.peer] = nh;
        t.parent[e.peer] = u;
        t.parent_link[e.peer] = e.link;
        pq.emplace(nd, nh, e.peer);
      }
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    if (v != src && t.parent[v] != kInvalidNode) {
      t.children[t.parent[v]].push_back(v);
    }
  }
  return t;
}

// v's children in sibling-list order, stopping (and failing) on a list
// longer than the tree could hold.
std::vector<NodeId> children_of(const Spt& t, NodeId v) {
  std::vector<NodeId> out;
  for (NodeId c = t.first_child[v]; c != kInvalidNode; c = t.next_sibling[c]) {
    if (out.size() >= t.first_child.size()) {
      ADD_FAILURE() << "sibling list of node " << v << " cycles";
      break;
    }
    out.push_back(c);
  }
  return out;
}

void expect_matches_reference(const Spt& t, const ReferenceSpt& ref,
                              const std::string& context) {
  const std::size_t n = ref.dist.size();
  ASSERT_EQ(t.root, ref.root) << context;
  ASSERT_EQ(t.dist.size(), n) << context;
  ASSERT_EQ(t.first_child.size(), n) << context;
  ASSERT_EQ(t.next_sibling.size(), n) << context;
  // The sibling arrays the reference's child vectors imply: nodes in no
  // list (the root, unreachable nodes) and last children end a list.
  std::vector<NodeId> next(n, kInvalidNode);
  for (const std::vector<NodeId>& kids : ref.children) {
    for (std::size_t i = 0; i + 1 < kids.size(); ++i) next[kids[i]] = kids[i + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    SCOPED_TRACE(context + ", node " + std::to_string(v));
    // Bit-equal distances: the trees must agree exactly, not approximately
    // (infinity == infinity for unreachable nodes).
    EXPECT_EQ(t.dist[v], ref.dist[v]);
    EXPECT_EQ(t.hops[v], ref.hops[v]);
    EXPECT_EQ(t.parent[v], ref.parent[v]);
    EXPECT_EQ(t.parent_link[v], ref.parent_link[v]);
    EXPECT_EQ(children_of(t, v), ref.children[v]);
    EXPECT_EQ(t.next_sibling[v], next[v]);
  }
}

// Every root's tree from a fresh Routing and from `warm`, whose trees were
// cached before the latest topology edits.
void expect_all_roots_match(const Topology& topo, Routing& warm,
                            const std::string& label) {
  Routing fresh(topo);
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    const ReferenceSpt ref = reference_compute(topo, src);
    const std::string context = label + ", root " + std::to_string(src);
    expect_matches_reference(fresh.spt(src), ref, context + " (fresh)");
    expect_matches_reference(warm.spt(src), ref, context + " (cached)");
  }
}

// Checks `topo` as built, then takes `downs` random links down (plus every
// link of one node, which is then unreachable from all others) and checks
// again, through a fresh Routing and through the stale cache.
void check_topology(Topology topo, util::Rng& rng, std::size_t downs,
                    const std::string& label) {
  Routing warm(topo);
  for (NodeId src = 0; src < topo.node_count(); ++src) warm.spt(src);
  expect_all_roots_match(topo, warm, label);

  std::vector<LinkId> up;
  for (LinkId id = 0; id < topo.link_count(); ++id) up.push_back(id);
  for (std::size_t i = 0; i < downs && !up.empty(); ++i) {
    const std::size_t k = rng.index(up.size());
    topo.set_link_up(up[k], false);
    up.erase(up.begin() + static_cast<std::ptrdiff_t>(k));
  }
  const auto isolated = static_cast<NodeId>(rng.index(topo.node_count()));
  const std::vector<LinkEnd> incident = topo.neighbors(isolated);
  for (const LinkEnd& e : incident) topo.set_link_up(e.link, false);
  ASSERT_TRUE(topo.neighbors(isolated).empty()) << label;
  expect_all_roots_match(topo, warm, label + " with links down");
}

// A connected random graph with mixed TTL thresholds: a random spanning
// tree plus `extra` random chords.  Delays are drawn from [0.05, 3), or,
// with `quantized`, from the quarter-seconds in [0.25, 3): exact binary
// fractions whose sums tie often, across different hop counts and
// parents, so every tie-break of the canonical tree is exercised.
Topology random_delay_graph(std::size_t n, std::size_t extra, bool quantized,
                            util::Rng& rng) {
  static constexpr int kThresholds[] = {1, 1, 1, 16, 32, 64};
  Topology topo(n);
  const auto add = [&](NodeId a, NodeId b) {
    const double delay = quantized ? 0.25 * (1 + rng.index(11))
                                   : rng.uniform(0.05, 3.0);
    topo.add_link(a, b, delay, kThresholds[rng.index(std::size(kThresholds))]);
  };
  for (NodeId v = 1; v < n; ++v) add(static_cast<NodeId>(rng.index(v)), v);
  const auto linked = [&](NodeId a, NodeId b) {
    for (const LinkEnd& e : topo.neighbors(a)) {
      if (e.peer == b) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<NodeId>(rng.index(n));
    const auto b = static_cast<NodeId>(rng.index(n));
    if (a != b && !linked(a, b)) add(a, b);
  }
  return topo;
}

TEST(SptReferenceTest, RandomDelayGraphsMatchReference) {
  util::Rng rng(20240817);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.index(48);
    const std::size_t extra = rng.index(2 * n);
    check_topology(random_delay_graph(n, extra, false, rng), rng, 1 + n / 8,
                   "random graph " + std::to_string(trial) + " (n=" +
                       std::to_string(n) + ")");
  }
}

TEST(SptReferenceTest, TiedDelayGraphsMatchReference) {
  util::Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.index(48);
    const std::size_t extra = rng.index(2 * n);
    check_topology(random_delay_graph(n, extra, true, rng), rng, 1 + n / 8,
                   "tied-delay graph " + std::to_string(trial) + " (n=" +
                       std::to_string(n) + ")");
  }
}

TEST(SptReferenceTest, TreeOfLansMatchesReference) {
  util::Rng rng(7);
  // 0.1 s LAN links under 1 s backbone links: many equal-delay ties.
  check_topology(topo::make_tree_of_lans(7, 3, 4).topo, rng, 3,
                 "tree of LANs");
}

TEST(SptReferenceTest, TransitStubMatchesReference) {
  util::Rng rng(11);
  check_topology(topo::make_transit_stub(4, 2, 5, rng).topo, rng, 4,
                 "transit-stub");
}

TEST(SptReferenceTest, RingsMatchReference) {
  util::Rng rng(3);
  // Equal-delay paths both ways round: even rings tie at the antipode.
  check_topology(topo::make_ring(12), rng, 1, "ring of 12");
  check_topology(topo::make_ring(13, 0.5), rng, 2, "ring of 13");
}

std::vector<LinkId> links_in_state(const Topology& topo, bool up) {
  std::vector<LinkId> ids;
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    if (topo.link_up(id) == up) ids.push_back(id);
  }
  return ids;
}

// Applies `steps` random batches of link dynamics to `topo`, checking every
// root's cached tree against the reference after each batch.
void churn_and_check(Topology& topo, util::Rng& rng, int steps,
                     const std::string& label) {
  Routing cached(topo);
  for (NodeId src = 0; src < topo.node_count(); ++src) cached.spt(src);

  for (int step = 0; step < steps; ++step) {
    // A batch of 1-4 mutations: mostly downs/ups, occasionally a new link.
    const int mutations = 1 + static_cast<int>(rng.index(4));
    for (int m = 0; m < mutations; ++m) {
      const double coin = rng.uniform(0.0, 1.0);
      if (coin < 0.9) {
        const bool take_down = coin < 0.45;
        const auto candidates = links_in_state(topo, take_down);
        if (!candidates.empty()) {
          topo.set_link_up(candidates[rng.index(candidates.size())],
                           !take_down);
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
    expect_all_roots_match(topo, cached,
                           label + ", step " + std::to_string(step));
  }
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
  Routing cached(topo);
  for (NodeId src = 0; src < topo.node_count(); ++src) cached.spt(src);
  for (int step = 0; step < 8; ++step) {
    const NodeId fresh_node = topo.add_node();
    const auto anchor = static_cast<NodeId>(rng.index(fresh_node));
    topo.add_link(anchor, fresh_node, 1.0 + rng.uniform(0.0, 2.0));
    expect_all_roots_match(topo, cached, "grow step " + std::to_string(step));
  }
}

TEST(RoutingRepairTest, PartitionHealRoundTripRestoresOriginalTrees) {
  util::Rng rng(41);
  Topology topo = topo::make_random_tree(30, rng);
  Routing cached(topo);
  std::vector<ReferenceSpt> original;
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    cached.spt(src);
    original.push_back(reference_compute(topo, src));
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
  expect_all_roots_match(topo, cached, "partitioned");

  for (LinkId id : cut) topo.set_link_up(id, true);
  expect_all_roots_match(topo, cached, "healed");
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    expect_matches_reference(cached.spt(src), original[src],
                             "healed vs original, root " + std::to_string(src));
  }
}

}  // namespace
}  // namespace srm::net
