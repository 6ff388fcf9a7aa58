// The forest fast path of MulticastNetwork (ARCHITECTURE.md §0): while the
// up-link graph is acyclic the network walks, TTL-scopes and measures
// distances on one rooted forest instead of per-sender trees and traces.
// Each case runs one script of sends, joins, leaves and link downs/ups on a
// forest topology, and again on the same topology with a disjoint,
// member-less triangle appended after its node ids.  The triangle makes the
// graph cyclic, so the second run takes the per-sender Routing + flattened
// trace path.  Both runs must agree on every observable: deliveries, stats,
// the net trace, the hops the drop policy is asked about, and every
// pairwise distance and hop count, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.h"
#include "topo/builders.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace srm::net {
namespace {

constexpr GroupId kGroup = 1;
constexpr GroupId kEmptyGroup = 2;  // joined once, then left by everyone
constexpr GroupId kNoGroup = 3;     // never joined
constexpr int kTtls[] = {0, 1, 2, 3, 4, 6, kMaxTtl};

class TestMessage : public Message {
 public:
  std::string describe() const override { return "FOREST-TEST"; }
};

struct Rx {
  NodeId receiver;
  NodeId source;
  GroupId group;
  double at;
  double path_delay;
  int hops;
  int remaining_ttl;
  friend bool operator==(const Rx&, const Rx&) = default;
};

struct Hop {
  LinkId link;
  NodeId from;
  NodeId to;
  std::uint64_t ordinal;
  double now;
  friend bool operator==(const Hop&, const Hop&) = default;
};

class Recorder : public PacketSink {
 public:
  Recorder(sim::EventQueue& q, std::vector<Rx>& log, NodeId self)
      : queue_(&q), log_(&log), self_(self) {}
  void on_receive(const Packet& p, const DeliveryInfo& i) override {
    log_->push_back(Rx{self_, p.source, p.group, queue_->now(), i.path_delay,
                       i.hops, i.remaining_ttl});
  }

 private:
  sim::EventQueue* queue_;
  std::vector<Rx>* log_;
  NodeId self_;
};

// Logs every hop it is asked about and drops about one in eight, keyed by
// the hop's coordinates so the verdicts do not depend on call order.
class LoggingDrop : public DropPolicy {
 public:
  explicit LoggingDrop(std::vector<Hop>& log) : log_(&log) {}
  bool should_drop(const Packet&, const HopContext& h) override {
    log_->push_back(Hop{h.link, h.from, h.to, h.packet_ordinal, h.now});
    std::uint64_t x = (std::uint64_t{h.link} << 40) ^
                      (std::uint64_t{h.to} << 20) ^ h.packet_ordinal;
    x *= 0x9E3779B97F4A7C15ull;
    return (x >> 61) == 0;
  }

 private:
  std::vector<Hop>* log_;
};

// One scripted operation; both worlds replay the same list.
struct Op {
  enum Kind { kSend, kSendInFlight, kJoin, kLeave, kLinkDown, kLinkUp,
              kStep, kDistances } kind;
  NodeId node = 0;
  GroupId group = kGroup;
  int ttl = kMaxTtl;
  Scope scope = Scope::kGlobal;
  LinkId link = 0;
};

struct Observed {
  std::vector<Rx> log;
  std::vector<Hop> hops;
  std::vector<trace::Event> trace;
  NetworkStats stats;
  std::vector<std::uint64_t> distance_bits;
  std::vector<int> hop_counts;
};

// Runs `ops` on `topo` (whose first `n` nodes are the forest under test)
// and returns everything the network let escape.
Observed run(Topology topo, std::size_t n, const std::vector<NodeId>& members,
             const std::vector<NodeId>& unattached, bool scoped,
             const std::vector<Op>& ops) {
  sim::EventQueue queue;
  MulticastNetwork net(queue, topo);
  net.set_scoped_tree_cache(scoped);
  Observed out;
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kNet));
  net.set_tracer(&tracer);
  net.set_drop_policy(std::make_shared<LoggingDrop>(out.hops));

  std::vector<std::unique_ptr<Recorder>> sinks;
  for (NodeId v = 0; v < n; ++v) {
    if (std::count(unattached.begin(), unattached.end(), v) > 0) continue;
    sinks.push_back(std::make_unique<Recorder>(queue, out.log, v));
    net.attach(v, sinks.back().get());
  }
  for (NodeId m : members) net.join(kGroup, m);
  net.join(kEmptyGroup, members.front());
  net.leave(kEmptyGroup, members.front());

  const auto distances = [&] {
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        out.distance_bits.push_back(
            std::bit_cast<std::uint64_t>(net.try_distance(a, b)));
        out.hop_counts.push_back(net.try_hops(a, b));
      }
    }
  };
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kSend:
      case Op::kSendInFlight: {
        Packet p;
        p.group = op.group;
        p.ttl = op.ttl;
        p.scope = op.scope;
        p.payload = std::make_shared<TestMessage>();
        net.multicast(op.node, p);
        if (op.kind == Op::kSend) queue.run();
        break;
      }
      case Op::kJoin:
        net.join(kGroup, op.node);
        break;
      case Op::kLeave:
        net.leave(kGroup, op.node);
        break;
      case Op::kLinkDown:
        net.invalidate_in_flight(op.link);
        topo.set_link_up(op.link, false);
        break;
      case Op::kLinkUp:
        topo.set_link_up(op.link, true);
        break;
      case Op::kStep:
        queue.run_steps(3);
        break;
      case Op::kDistances:
        distances();
        break;
    }
  }
  queue.run();
  distances();
  out.trace = sink.events();
  out.stats = net.stats();
  return out;
}

// `base` with random non-dyadic delays (so the order a path's delays are
// summed in shows in the bits), a few TTL thresholds above 1 and three
// administrative regions.
Topology vary(const Topology& base, util::Rng& rng) {
  Topology t(base.node_count());
  for (const Link& l : base.links()) {
    const int threshold = rng.index(6) == 0 ? 2 + static_cast<int>(rng.index(2))
                                            : 1;
    const LinkId id = t.add_link(l.a, l.b, rng.uniform(0.05, 1.5), threshold);
    t.set_link_up(id, l.up);
  }
  for (NodeId v = 0; v < t.node_count(); ++v) {
    t.set_admin_region(v, static_cast<std::uint32_t>(rng.index(3)));
  }
  return t;
}

Topology with_triangle(Topology t) {
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  t.add_link(a, b, 0.7);
  t.add_link(b, c, 0.9);
  t.add_link(c, a, 1.1);
  return t;
}

// A random script over the forest's nodes and links: sends from random
// nodes at TTLs drawn from kTtls (some admin-scoped, some to an empty group
// or a group nobody joined, some left in flight), joins and leaves between
// sends, partial runs, and link downs and ups.
std::vector<Op> script(const Topology& topo, util::Rng& rng, int steps) {
  const std::size_t n = topo.node_count();
  std::vector<Op> ops;
  std::vector<LinkId> down;
  for (int i = 0; i < steps; ++i) {
    Op op;
    const std::size_t roll = rng.index(100);
    op.node = static_cast<NodeId>(rng.index(n));
    if (roll < 45) {
      op.kind = rng.index(4) == 0 ? Op::kSendInFlight : Op::kSend;
      op.ttl = kTtls[rng.index(std::size(kTtls))];
      op.scope = rng.index(5) == 0 ? Scope::kAdmin : Scope::kGlobal;
      const std::size_t g = rng.index(20);
      op.group = g == 0 ? kEmptyGroup : g == 1 ? kNoGroup : kGroup;
    } else if (roll < 57) {
      op.kind = Op::kJoin;
    } else if (roll < 69) {
      op.kind = Op::kLeave;
    } else if (roll < 78) {
      op.kind = Op::kStep;
    } else if (roll < 88 && topo.link_count() > 0) {
      op.kind = Op::kLinkDown;
      op.link = static_cast<LinkId>(rng.index(topo.link_count()));
      down.push_back(op.link);
    } else if (roll < 96 && !down.empty()) {
      op.kind = Op::kLinkUp;
      const std::size_t k = rng.index(down.size());
      op.link = down[k];
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      op.kind = Op::kDistances;
    }
    ops.push_back(op);
  }
  return ops;
}

void expect_same(const Observed& forest, const Observed& traced) {
  ASSERT_EQ(forest.log.size(), traced.log.size());
  for (std::size_t i = 0; i < forest.log.size(); ++i) {
    ASSERT_EQ(forest.log[i], traced.log[i]) << "delivery " << i;
  }
  ASSERT_EQ(forest.hops.size(), traced.hops.size());
  for (std::size_t i = 0; i < forest.hops.size(); ++i) {
    ASSERT_EQ(forest.hops[i], traced.hops[i]) << "drop consultation " << i;
  }
  ASSERT_EQ(forest.trace.size(), traced.trace.size());
  for (std::size_t i = 0; i < forest.trace.size(); ++i) {
    ASSERT_EQ(forest.trace[i], traced.trace[i]) << "net trace event " << i;
  }
  const NetworkStats& a = forest.stats;
  const NetworkStats& b = traced.stats;
  EXPECT_EQ(a.multicasts_sent, b.multicasts_sent);
  EXPECT_EQ(a.unicasts_sent, b.unicasts_sent);
  EXPECT_EQ(a.link_transmissions, b.link_transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.ttl_prunes, b.ttl_prunes);
  EXPECT_EQ(a.in_flight_invalidated, b.in_flight_invalidated);
  EXPECT_EQ(forest.distance_bits, traced.distance_bits);
  EXPECT_EQ(forest.hop_counts, traced.hop_counts);
}

// Runs `steps` random operations on a varied copy of `base` both ways,
// with the scoped path off and on.
void differential(const Topology& base, std::uint64_t seed, int steps) {
  util::Rng rng(seed);
  const Topology topo = vary(base, rng);
  const std::size_t n = topo.node_count();
  std::vector<NodeId> members;
  std::vector<NodeId> unattached;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.index(3) == 0) members.push_back(v);
    if (rng.index(10) == 0) unattached.push_back(v);
  }
  if (members.empty()) members.push_back(0);
  const std::vector<Op> ops = script(topo, rng, steps);
  const Topology cyclic = with_triangle(topo);
  for (bool scoped : {false, true}) {
    SCOPED_TRACE(scoped ? "scoped path on" : "scoped path off");
    const Observed forest = run(topo, n, members, unattached, scoped, ops);
    const Observed traced = run(cyclic, n, members, unattached, scoped, ops);
    if (topo.link_count() > 0) {
      EXPECT_GT(forest.log.size(), 0u);
      EXPECT_GT(forest.hops.size(), 0u);
    }
    expect_same(forest, traced);
  }
}

TEST(ForestWalkTest, RandomTreesMatchPerSenderTraces) {
  util::Rng rng(97);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 4 + rng.index(60);
    differential(topo::make_random_tree(n, rng), 1000 + trial, 160);
  }
}

TEST(ForestWalkTest, BoundedDegreeTreesMatchPerSenderTraces) {
  for (int degree : {2, 3, 4, 6}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    differential(topo::make_bounded_degree_tree(40, degree), 2000 + degree,
                 160);
  }
}

TEST(ForestWalkTest, TreesOfLansMatchPerSenderTraces) {
  differential(topo::make_tree_of_lans(6, 3, 4).topo, 3001, 200);
  differential(topo::make_tree_of_lans(10, 4, 3).topo, 3002, 200);
}

TEST(ForestWalkTest, SingleNodeAndEdgelessForests) {
  differential(Topology(1), 4001, 20);
  differential(Topology(5), 4002, 40);
}

// A forest of several components from the start, and a chain whose
// deliveries are still in flight when a link on their paths fails.
TEST(ForestWalkTest, ComponentsAndInFlightFailures) {
  util::Rng rng(5);
  Topology base = topo::make_random_tree(30, rng);
  for (LinkId l : {2u, 9u, 17u}) base.set_link_up(l, false);
  differential(base, 5001, 160);

  const Topology chain = topo::make_chain(12);
  std::vector<Op> ops;
  for (NodeId v = 0; v < 12; ++v) ops.push_back(Op{Op::kSendInFlight, v});
  ops.push_back(Op{Op::kStep});
  ops.push_back(Op{Op::kLinkDown, 0, kGroup, kMaxTtl, Scope::kGlobal, 5});
  ops.push_back(Op{Op::kDistances});
  ops.push_back(Op{Op::kSendInFlight, 3});
  ops.push_back(Op{Op::kLinkUp, 0, kGroup, kMaxTtl, Scope::kGlobal, 5});
  std::vector<NodeId> everyone;
  for (NodeId v = 0; v < 12; ++v) everyone.push_back(v);
  const Observed forest = run(chain, 12, everyone, {}, false, ops);
  const Observed traced =
      run(with_triangle(chain), 12, everyone, {}, false, ops);
  EXPECT_GT(forest.stats.in_flight_invalidated, 0u);
  expect_same(forest, traced);
}

TEST(ForestWalkTest, ThrowingQueriesMatchRouting) {
  util::Rng rng(8);
  Topology topo = topo::make_random_tree(20, rng);
  topo.set_link_up(3, false);
  sim::EventQueue queue;
  MulticastNetwork net(queue, topo);
  Routing routing(topo);
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = 0; b < 20; ++b) {
      if (routing.try_hop_count(a, b) < 0) {
        EXPECT_THROW(net.distance(a, b), std::runtime_error);
        EXPECT_THROW(net.hops(a, b), std::runtime_error);
      } else {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(net.distance(a, b)),
                  std::bit_cast<std::uint64_t>(routing.distance(a, b)));
        EXPECT_EQ(net.hops(a, b), routing.hop_count(a, b));
      }
    }
  }
  EXPECT_EQ(net.try_hops(0, 20), -1);
  EXPECT_THROW(net.try_distance(20, 0), std::out_of_range);
}

}  // namespace
}  // namespace srm::net
