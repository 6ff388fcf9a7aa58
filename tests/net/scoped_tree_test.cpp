// The TTL-scoped walk (set_scoped_walk; ARCHITECTURE.md §12): every
// TTL-limited multicast must deliver to exactly the receivers — with
// exactly the delays, hop counts and arrival order — that the full
// canonical-tree walk produces, on trees, uniform-delay graphs and graphs
// where the fewest hops and the least delay pick different paths, while
// never walking toward members beyond the TTL radius.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace srm::net {
namespace {

class TestMessage : public Message {
 public:
  std::string describe() const override { return "SCOPED-TEST"; }
};

struct Rx {
  NodeId receiver;
  double at;
  double path_delay;
  int hops;
  int remaining_ttl;
  friend bool operator==(const Rx&, const Rx&) = default;
};

class Recorder : public PacketSink {
 public:
  explicit Recorder(sim::EventQueue& q, std::vector<Rx>& log, NodeId self)
      : queue_(&q), log_(&log), self_(self) {}
  void on_receive(const Packet&, const DeliveryInfo& i) override {
    log_->push_back(
        Rx{self_, queue_->now(), i.path_delay, i.hops, i.remaining_ttl});
  }

 private:
  sim::EventQueue* queue_;
  std::vector<Rx>* log_;
  NodeId self_;
};

// The delivery log of a TTL sweep of multicasts over `topo`: every root
// sends once at every TTL, in a world built for this run alone.
std::vector<Rx> sweep_log(const Topology& topo,
                          const std::vector<NodeId>& members,
                          const std::vector<NodeId>& roots,
                          const std::vector<int>& ttls, bool scoped) {
  sim::EventQueue queue;
  MulticastNetwork net(queue, topo);
  net.set_scoped_walk(scoped);
  std::vector<Rx> log;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (NodeId m : members) {
    sinks.push_back(std::make_unique<Recorder>(queue, log, m));
    net.attach(m, sinks.back().get());
    net.join(1, m);
  }
  for (NodeId root : roots) {
    for (int ttl : ttls) {
      Packet p;
      p.group = 1;
      p.ttl = ttl;
      p.payload = std::make_shared<TestMessage>();
      net.multicast(root, p);
      queue.run();
    }
  }
  return log;
}

// Runs the same sweep with the full walk and with the scoped walk and
// requires identical delivery logs.
void expect_sweep_identical(const Topology& topo,
                            const std::vector<NodeId>& members,
                            const std::vector<NodeId>& roots,
                            const std::vector<int>& ttls) {
  const std::vector<Rx> full = sweep_log(topo, members, roots, ttls, false);
  const std::vector<Rx> fast = sweep_log(topo, members, roots, ttls, true);
  ASSERT_EQ(full.size(), fast.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i], fast[i]) << "delivery " << i << " diverged";
  }
}

// Half the nodes (at least one) as members and three random roots.
void sweep_random_members(const Topology& topo, util::Rng& rng,
                          const std::vector<int>& ttls) {
  const std::size_t n = topo.node_count();
  std::vector<NodeId> members;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.index(2) == 0) members.push_back(v);
  }
  if (members.empty()) members.push_back(static_cast<NodeId>(rng.index(n)));
  std::vector<NodeId> roots;
  for (int i = 0; i < 3; ++i) roots.push_back(static_cast<NodeId>(rng.index(n)));
  expect_sweep_identical(topo, members, roots, ttls);
}

constexpr double kUniformDelays[] = {1.0, 0.3, 0.1};

// A random tree of n nodes on 1 s links plus `extra` distinct random links
// of `extra_delay` each.  Where a shortcut and the tree disagree, the
// fewest hops and the least delay pick different paths.
Topology mixed_delay_graph(std::size_t n, std::size_t extra,
                           double extra_delay, util::Rng& rng) {
  Topology topo = topo::make_random_tree(n, rng);
  std::set<std::pair<NodeId, NodeId>> present;
  for (const Link& l : topo.links()) {
    present.emplace(std::min(l.a, l.b), std::max(l.a, l.b));
  }
  const std::size_t links = topo.link_count() + extra;
  while (topo.link_count() < links) {
    const auto a = static_cast<NodeId>(rng.index(n));
    const auto b = static_cast<NodeId>(rng.index(n));
    if (a == b || !present.emplace(std::min(a, b), std::max(a, b)).second) {
      continue;
    }
    topo.add_link(a, b, extra_delay);
  }
  return topo;
}

TEST(ScopedTreeTest, MatchesFullWalkOnTreeOfLans) {
  // Non-uniform delays (backbone 1.0, LAN 0.1) on a tree: paths are unique,
  // so the scoped walk must reproduce the canonical walk exactly.
  auto tl = topo::make_tree_of_lans(5, 3, 4);
  std::vector<NodeId> roots{tl.workstations.front(), tl.workstations.back(),
                            tl.workstations[tl.workstations.size() / 2]};
  expect_sweep_identical(tl.topo, tl.workstations, roots, {1, 2, 3, 4, 8});
}

TEST(ScopedTreeTest, MatchesFullWalkOnRandomTree) {
  util::Rng rng(17);
  Topology topo = topo::make_random_tree(60, rng);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < 60; n += 3) members.push_back(n);
  expect_sweep_identical(topo, members, {members[0], members[5], members[10]},
                         {1, 2, 3, 5, 9});
}

TEST(ScopedTreeTest, MatchesFullWalkOnUniformDelayRing) {
  // A ring has redundant paths but uniform delays, where min-delay and
  // min-hop orders agree.
  Topology topo = topo::make_ring(12);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < 12; ++n) members.push_back(n);
  expect_sweep_identical(topo, members, {0, 5}, {1, 2, 3, 6});

  util::Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 3 + rng.index(28);
    const double delay = kUniformDelays[rng.index(std::size(kUniformDelays))];
    const Topology ring = topo::make_ring(n, delay);
    sweep_random_members(ring, rng, {1, 2, 4, 7});
  }
}

TEST(ScopedTreeTest, MatchesFullWalkOnUniformDelayRandomGraphs) {
  util::Rng rng(2718);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 5 + rng.index(36);
    const std::size_t edges = n - 1 + rng.index(n + 1);  // cycles, mostly
    const double delay = kUniformDelays[rng.index(std::size(kUniformDelays))];
    const Topology topo = topo::make_random_graph(n, edges, rng, delay);
    sweep_random_members(topo, rng, {1, 2, 3, 5});
  }
}

TEST(ScopedTreeTest, MatchesFullWalkOnMixedDelayGraphs) {
  // The scoped walk reads the same least-delay tree as the full walk, so a
  // node whose tree path is longer than the TTL stays out of reach even
  // when a slower link reaches it in fewer hops.
  util::Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("transit-stub " + std::to_string(trial));
    const auto ts = topo::make_transit_stub(3 + rng.index(3), 2,
                                            3 + rng.index(4), rng);
    sweep_random_members(ts.topo, rng, {1, 2, 3, 5, 8});
  }
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("mixed-delay graph " + std::to_string(trial));
    const std::size_t n = 5 + rng.index(36);
    const double extra_delay = trial % 2 == 0 ? 0.4 : 2.5;
    sweep_random_members(mixed_delay_graph(n, 1 + rng.index(n), extra_delay,
                                           rng),
                         rng, {1, 2, 3, 5});
  }

  // Triangle 0-1 (1 s), 1-2 (1 s), 0-2 (5 s): node 2's canonical path is
  // two hops, so a TTL-1 multicast from node 0 reaches only node 1.
  Topology triangle(3);
  triangle.add_link(0, 1, 1.0);
  triangle.add_link(1, 2, 1.0);
  triangle.add_link(0, 2, 5.0);
  const std::vector<NodeId> members{0, 1, 2};
  const auto full = sweep_log(triangle, members, {0}, {1}, false);
  const auto fast = sweep_log(triangle, members, {0}, {1}, true);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].receiver, 1u);
  EXPECT_EQ(fast, full);
}

TEST(ScopedTreeTest, RevalidatesOnMembershipChange) {
  auto tl = topo::make_tree_of_lans(3, 2, 3);
  sim::EventQueue queue;
  MulticastNetwork net(queue, tl.topo);
  net.set_scoped_walk(true);
  std::vector<Rx> log;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (NodeId m : tl.workstations) {
    sinks.push_back(std::make_unique<Recorder>(queue, log, m));
    net.attach(m, sinks.back().get());
    net.join(1, m);
  }
  const NodeId root = tl.workstations.front();
  auto send = [&](int ttl) {
    Packet p;
    p.group = 1;
    p.ttl = ttl;
    p.payload = std::make_shared<TestMessage>();
    net.multicast(root, p);
    queue.run();
  };
  send(2);
  const std::size_t first = log.size();
  EXPECT_GT(first, 0u);
  // A sibling leaves the group: the next send's marks must leave it out.
  const NodeId sibling = tl.workstations[1];
  net.leave(1, sibling);
  log.clear();
  send(2);
  for (const Rx& rx : log) EXPECT_NE(rx.receiver, sibling);
  EXPECT_EQ(log.size(), first - 1);
}

TEST(ScopedTreeTest, FullTtlStillUsesCanonicalTree) {
  // TTL = kMaxTtl bypasses the scoped walk entirely; stats must show no
  // behavioural change when it is on but every send is full-scope.
  auto tl = topo::make_tree_of_lans(3, 2, 3);
  auto run = [&](bool scoped) {
    sim::EventQueue queue;
    MulticastNetwork net(queue, tl.topo);
    net.set_scoped_walk(scoped);
    std::vector<Rx> log;
    std::vector<std::unique_ptr<Recorder>> sinks;
    for (NodeId m : tl.workstations) {
      sinks.push_back(std::make_unique<Recorder>(queue, log, m));
      net.attach(m, sinks.back().get());
      net.join(1, m);
    }
    Packet p;
    p.group = 1;
    p.payload = std::make_shared<TestMessage>();
    net.multicast(tl.workstations.front(), p);
    queue.run();
    return std::make_pair(log, net.stats().ttl_prunes);
  };
  const auto [full_log, full_prunes] = run(false);
  const auto [fast_log, fast_prunes] = run(true);
  ASSERT_EQ(full_log.size(), fast_log.size());
  for (std::size_t i = 0; i < full_log.size(); ++i) {
    EXPECT_EQ(full_log[i], fast_log[i]);
  }
  EXPECT_EQ(full_prunes, fast_prunes);
}

}  // namespace
}  // namespace srm::net
