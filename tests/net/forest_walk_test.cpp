// The two trees MulticastNetwork walks (ARCHITECTURE.md §0): while the
// up-link graph is acyclic the network walks, TTL-scopes and measures
// distances on one rooted forest; on a graph with a cycle it walks
// Routing's shortest-path tree of each sender.  Each differential case runs
// one script of sends, joins, leaves and link downs/ups on a forest
// topology, and again on the same topology with a disjoint, member-less
// triangle appended after its node ids.  The triangle makes the graph
// cyclic, so the second run takes the per-sender tree path.  Both runs
// must agree on every observable: deliveries, stats, the net trace, the
// hops the drop policy is asked about, and every pairwise distance and hop
// count, bit for bit.  Both paths share one walker, so the reference cases
// at the end also hold each of them, send by send, to the delivery walk
// written from its definition.
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
#include "net/routing.h"
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

// Drops about one hop in eight, keyed by the hop and `key`, so a verdict
// does not depend on call order.
bool keyed_drop(LinkId link, NodeId to, std::uint64_t key) {
  std::uint64_t x =
      (std::uint64_t{link} << 40) ^ (std::uint64_t{to} << 20) ^ key;
  x *= 0x9E3779B97F4A7C15ull;
  return (x >> 61) == 0;
}

// Logs every hop it is asked about; the packet ordinal keys its verdicts.
class LoggingDrop : public DropPolicy {
 public:
  explicit LoggingDrop(std::vector<Hop>& log) : log_(&log) {}
  bool should_drop(const Packet&, const HopContext& h) override {
    log_->push_back(Hop{h.link, h.from, h.to, h.packet_ordinal, h.now});
    return keyed_drop(h.link, h.to, h.packet_ordinal);
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
  net.set_scoped_walk(scoped);
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
// summed in shows in the bits) unless `new_delays` is false, a few TTL
// thresholds above 1 and three administrative regions.
Topology vary(const Topology& base, util::Rng& rng, bool new_delays = true) {
  Topology t(base.node_count());
  for (const Link& l : base.links()) {
    const int threshold = rng.index(6) == 0 ? 2 + static_cast<int>(rng.index(2))
                                            : 1;
    const double delay = new_delays ? rng.uniform(0.05, 1.5) : l.delay;
    const LinkId id = t.add_link(l.a, l.b, delay, threshold);
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


// --- The walk against its definition ----------------------------------------

struct Consult {
  LinkId link;
  NodeId from;
  NodeId to;
  friend bool operator==(const Consult&, const Consult&) = default;
};

// Logs every hop it is asked about; a serial the test bumps before each
// send keys its verdicts, so the reference can recompute every one.
class SerialDrop : public DropPolicy {
 public:
  SerialDrop(const std::uint64_t& serial, std::vector<Consult>& log)
      : serial_(&serial), log_(&log) {}
  bool should_drop(const Packet&, const HopContext& h) override {
    log_->push_back(Consult{h.link, h.from, h.to});
    return keyed_drop(h.link, h.to, *serial_);
  }

 private:
  const std::uint64_t* serial_;
  std::vector<Consult>* log_;
};

// What one send must do: its drop-policy consultations and deliveries in
// walk order, and its counts.
struct Expected {
  std::vector<Consult> consults;
  std::vector<Rx> deliveries;
  std::uint64_t prunes = 0;
  std::uint64_t drops = 0;
  std::uint64_t transmissions = 0;
};

struct ReferenceSend {
  const Topology& topo;
  const Packet& packet;
  std::uint64_t serial;
  double now;
  std::vector<std::vector<NodeId>> children;  // ascending id
  std::vector<char> wanted;    // on the tree path to a wanted member
  std::vector<char> receives;  // an attached member other than the sender
};

// The delivery walk, recursively from its definition: at `node`, deliver
// if it receives; consult the hop to each wanted child in ascending id,
// pruning it when the TTL is spent, below the link's threshold or leaving
// an admin-scoped packet's region, then asking the drop policy; recurse
// into the allowed children highest id first.
void reference_walk(const ReferenceSend& s, NodeId node, int ttl,
                    double delay, int hops, Expected& out) {
  const Packet& p = s.packet;
  if (s.receives[node]) {
    out.deliveries.push_back(Rx{node, p.source, p.group, s.now + delay, delay,
                                hops, p.ttl - hops});
  }
  std::vector<NodeId> allowed;
  for (NodeId c : s.children[node]) {
    if (!s.wanted[c]) continue;
    const LinkId link = s.topo.link_between(node, c);
    if (ttl < 1 || ttl < s.topo.link(link).threshold ||
        (p.scope == Scope::kAdmin &&
         s.topo.admin_region(c) != s.topo.admin_region(p.source))) {
      ++out.prunes;
      continue;
    }
    out.consults.push_back(Consult{link, node, c});
    if (keyed_drop(link, c, s.serial)) {
      ++out.drops;
      continue;
    }
    ++out.transmissions;
    allowed.push_back(c);
  }
  for (auto it = allowed.rbegin(); it != allowed.rend(); ++it) {
    const double d = s.topo.link(s.topo.link_between(node, *it)).delay;
    reference_walk(s, *it, ttl - 1, delay + d, hops + 1, out);
  }
}

// The reference for sending `p` from p.source over Routing's tree of it.
// A scoped send wants only the members within p.ttl tree hops.
Expected reference(const Topology& topo, Routing& routing, const Packet& p,
                   bool scoped_walk, const std::vector<char>& member,
                   const std::vector<char>& attached, std::uint64_t serial,
                   double now) {
  const Spt& t = routing.spt(p.source);
  const std::size_t n = topo.node_count();
  ReferenceSend s{topo, p, serial, now, {}, {}, {}};
  s.children.assign(n, {});
  s.wanted.assign(n, 0);
  s.receives.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v != p.source && t.parent[v] != kInvalidNode) {
      s.children[t.parent[v]].push_back(v);
    }
  }
  const bool scoped =
      scoped_walk && p.ttl < kMaxTtl && p.scope == Scope::kGlobal;
  for (NodeId m = 0; m < n; ++m) {
    if (p.group != kGroup || !member[m] || t.parent[m] == kInvalidNode) {
      continue;
    }
    s.receives[m] = m != p.source && attached[m];
    if (scoped && t.hops[m] > p.ttl) continue;
    for (NodeId v = m; v != p.source && !s.wanted[v]; v = t.parent[v]) {
      s.wanted[v] = 1;
    }
  }
  Expected out;
  reference_walk(s, p.source, p.ttl, 0.0, 0, out);
  return out;
}

struct Checked {
  std::size_t consults = 0;
  std::size_t deliveries = 0;
};

// Replays the sends, joins, leaves and link downs and ups of `ops` on
// `topo`, each send run to completion, and requires every send to match
// the reference in consultations, deliveries (in arrival order) and counts.
void expect_reference(Topology topo, const std::vector<NodeId>& members,
                      const std::vector<NodeId>& unattached, bool scoped,
                      const std::vector<Op>& ops, Checked& checked) {
  sim::EventQueue queue;
  MulticastNetwork net(queue, topo);
  net.set_scoped_walk(scoped);
  std::uint64_t serial = 0;
  std::vector<Consult> consults;
  net.set_drop_policy(std::make_shared<SerialDrop>(serial, consults));
  Routing routing(topo);
  const std::size_t n = topo.node_count();
  std::vector<char> member(n, 0);
  std::vector<char> attached(n, 0);
  std::vector<Rx> log;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (NodeId v = 0; v < n; ++v) {
    if (std::count(unattached.begin(), unattached.end(), v) > 0) continue;
    attached[v] = 1;
    sinks.push_back(std::make_unique<Recorder>(queue, log, v));
    net.attach(v, sinks.back().get());
  }
  for (NodeId m : members) {
    net.join(kGroup, m);
    member[m] = 1;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kSend:
      case Op::kSendInFlight: {
        Packet p;
        p.source = op.node;
        p.group = op.group;
        p.ttl = op.ttl;
        p.scope = op.scope;
        p.payload = std::make_shared<TestMessage>();
        ++serial;
        Expected want = reference(topo, routing, p, scoped, member, attached,
                                  serial, queue.now());
        std::stable_sort(want.deliveries.begin(), want.deliveries.end(),
                         [](const Rx& a, const Rx& b) {
                           return a.path_delay < b.path_delay;
                         });
        consults.clear();
        log.clear();
        const NetworkStats before = net.stats();
        net.multicast(op.node, p);
        queue.run();
        ASSERT_EQ(consults.size(), want.consults.size());
        for (std::size_t k = 0; k < consults.size(); ++k) {
          ASSERT_EQ(consults[k], want.consults[k]) << "consultation " << k;
        }
        ASSERT_EQ(log.size(), want.deliveries.size());
        for (std::size_t k = 0; k < log.size(); ++k) {
          ASSERT_EQ(log[k], want.deliveries[k]) << "delivery " << k;
        }
        const NetworkStats& after = net.stats();
        EXPECT_EQ(after.ttl_prunes - before.ttl_prunes, want.prunes);
        EXPECT_EQ(after.drops - before.drops, want.drops);
        EXPECT_EQ(after.link_transmissions - before.link_transmissions,
                  want.transmissions);
        checked.consults += consults.size();
        checked.deliveries += log.size();
        break;
      }
      case Op::kJoin:
        net.join(kGroup, op.node);
        member[op.node] = 1;
        break;
      case Op::kLeave:
        net.leave(kGroup, op.node);
        member[op.node] = 0;
        break;
      case Op::kLinkDown:
        net.invalidate_in_flight(op.link);
        topo.set_link_up(op.link, false);
        break;
      case Op::kLinkUp:
        topo.set_link_up(op.link, true);
        break;
      case Op::kStep:
      case Op::kDistances:
        break;
    }
  }
}

// Holds `base`, varied, to the reference with the scoped walk off and on,
// alone and with the member-less triangle appended: on a forest the two
// runs take the forest and the per-sender tree path.
void reference_check(const Topology& base, std::uint64_t seed, int steps,
                     bool new_delays) {
  util::Rng rng(seed);
  const Topology topo = vary(base, rng, new_delays);
  const std::size_t n = topo.node_count();
  std::vector<NodeId> members;
  std::vector<NodeId> unattached;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.index(3) == 0) members.push_back(v);
    if (rng.index(10) == 0) unattached.push_back(v);
  }
  if (members.empty()) members.push_back(0);
  const std::vector<Op> ops = script(topo, rng, steps);
  Checked checked;
  for (bool scoped : {false, true}) {
    SCOPED_TRACE(scoped ? "scoped walk on" : "scoped walk off");
    expect_reference(topo, members, unattached, scoped, ops, checked);
    expect_reference(with_triangle(topo), members, unattached, scoped, ops,
                     checked);
  }
  EXPECT_GT(checked.consults, 0u);
  EXPECT_GT(checked.deliveries, 0u);
}

TEST(ReferenceWalkTest, RandomTrees) {
  util::Rng rng(131);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 4 + rng.index(60);
    reference_check(topo::make_random_tree(n, rng), 6000 + trial, 160, true);
  }
}

TEST(ReferenceWalkTest, TreesOfLans) {
  reference_check(topo::make_tree_of_lans(6, 3, 4).topo, 7001, 200, true);
  reference_check(topo::make_tree_of_lans(10, 4, 3).topo, 7002, 200, false);
}

TEST(ReferenceWalkTest, UniformDelayRandomGraphs) {
  util::Rng rng(137);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 5 + rng.index(40);
    const std::size_t edges = n - 1 + 1 + rng.index(n);
    reference_check(topo::make_random_graph(n, edges, rng, 0.3), 8000 + trial,
                    160, false);
  }
}

TEST(ReferenceWalkTest, TransitStubWorlds) {
  util::Rng rng(139);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto ts =
        topo::make_transit_stub(3 + rng.index(3), 2, 3 + rng.index(4), rng);
    reference_check(ts.topo, 9000 + trial, 200, false);
  }
}

}  // namespace
}  // namespace srm::net
