// Delivery chains in flight together, against eager scheduling.
//
// MulticastNetwork keeps one chain per transmission: it reserves the send's
// block of event-queue seqs, places the receivers stably by path delay in
// one counting pass, and keeps only each chain's next delivery in the event
// heap.  That must fire exactly what scheduling every receiver as its own
// event, in walk order, fires, also while many chains are in flight and
// arrival times tie across them.  The reference here does just that, over
// the walk written from its definition: a depth-first pre-order of the tree
// from the sender, children highest id first.  Under the parallel kernel
// the reference ships each send's receivers in another region as one batch
// through drain hooks of its own, adopts the batches in the network's
// documented order (first arrival, origin region, origin seq) and
// schedules each receiver as its own event there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "net/region_map.h"
#include "sim/event_queue.h"
#include "sim/pdes.h"

namespace srm::net {
namespace {

constexpr GroupId kGroup = 1;
constexpr int kResponseBase = 1 << 20;

class Tagged : public Message {
 public:
  explicit Tagged(int tag) : tag_(tag) {}
  int tag() const { return tag_; }
  std::string describe() const override { return "CHAIN-ORDER"; }

 private:
  int tag_;
};

struct Rx {
  NodeId to;
  NodeId source;
  int tag;
  double at;
  double path_delay;
  int hops;
  friend bool operator==(const Rx&, const Rx&) = default;
};

// One transmission; `to` is kInvalidNode for a multicast.
struct Send {
  double at;
  NodeId from;
  NodeId to;
  int tag;
};

struct World {
  Topology topo;
  std::vector<char> member;
  std::vector<Send> sends;  // scheduled in this order
};

struct SplitMix {
  std::uint64_t state;
  std::uint64_t draw(std::uint64_t n) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) % n;
  }
};

// A random tree whose links all take one unit (arrivals tie everywhere) or
// take distinct non-dyadic delays (they tie only across twin sends), and a
// script of multicasts and unicasts on a half-unit grid.  About one send in
// four has a twin from the same sender at the same instant.
World make_world(std::uint64_t seed, bool uniform) {
  SplitMix rng{seed};
  const std::size_t n = 24 + rng.draw(24);
  World w{Topology(n), std::vector<char>(n, 0), {}};
  for (NodeId v = 1; v < n; ++v) {
    const double delay =
        uniform ? 1.0 : 0.25 + static_cast<double>(1 + rng.draw(999983)) /
                                   999983.0;
    w.topo.add_link(static_cast<NodeId>(rng.draw(v)), v, delay);
  }
  for (NodeId v = 0; v < n; ++v) w.member[v] = rng.draw(3) != 0;
  const auto any_send = [&](double at, NodeId from) {
    NodeId to = kInvalidNode;
    if (rng.draw(10) < 3) {
      to = static_cast<NodeId>(rng.draw(n - 1));
      if (to >= from) ++to;
    }
    w.sends.push_back(Send{at, from, to, static_cast<int>(w.sends.size())});
  };
  for (int i = 0; i < 60; ++i) {
    const double at = 0.5 * static_cast<double>(rng.draw(16));
    const auto from = static_cast<NodeId>(rng.draw(n));
    any_send(at, from);
    if (rng.draw(4) == 0) any_send(at, from);
  }
  return w;
}

// Some deliveries of a scripted send make the receiver send again from
// inside the delivery event: a pure function of receiver and tag, so both
// sides and every region agree.  Odd tags answer the source by unicast.
bool responds(const Rx& rx) {
  return rx.tag < kResponseBase &&
         (static_cast<std::uint64_t>(rx.to) * 0x9E3779B97F4A7C15ull ^
          static_cast<std::uint64_t>(rx.tag) * 0xC2B2AE3D27D4EB4Full) %
                 7 ==
             0;
}
Send response(const Rx& rx) {
  return Send{rx.at, rx.to, rx.tag % 2 != 0 ? rx.source : kInvalidNode,
              kResponseBase + rx.tag * 1024 + static_cast<int>(rx.to)};
}

// The reference's view of one receiver.
struct Item {
  NodeId to;
  double delay;
  int hops;
};

// Every node but `node`'s own, in walk order from the sender, with its
// path delay summed from the sender.
void reference_walk(const Topology& t, NodeId node, NodeId prev, double delay,
                    int hops, std::vector<Item>& out) {
  if (prev != kInvalidNode) out.push_back(Item{node, delay, hops});
  std::vector<LinkEnd> next;
  for (const LinkEnd& e : t.neighbors(node)) {
    if (e.peer != prev) next.push_back(e);
  }
  std::sort(next.begin(), next.end(), [](const LinkEnd& a, const LinkEnd& b) {
    return a.peer > b.peer;
  });
  for (const LinkEnd& e : next) {
    reference_walk(t, e.peer, node, delay + e.delay, hops + 1, out);
  }
}

// The receivers of `s` in walk order.
std::vector<Item> receivers(const World& w, const Send& s) {
  std::vector<Item> all;
  reference_walk(w.topo, s.from, kInvalidNode, 0.0, 0, all);
  std::vector<Item> out;
  for (const Item& item : all) {
    if (s.to == kInvalidNode ? w.member[item.to] != 0 : item.to == s.to) {
      out.push_back(item);
    }
  }
  return out;
}

using Logs = std::vector<std::vector<Rx>>;  // per region, in fire order

// Runs the world's script on the network (eager = false) or the reference,
// sequentially (map == nullptr) or on the parallel kernel with `threads`
// workers.
Logs run(const World& w, bool eager, const RegionMap* map, unsigned threads) {
  const std::uint32_t regions = map != nullptr ? map->count : 1;
  const auto region_of = [map](NodeId n) {
    return map != nullptr ? map->of[n] : 0u;
  };
  sim::EventQueue sequential;
  std::unique_ptr<sim::ParallelKernel> kernel;
  std::vector<sim::EventQueue*> queues{&sequential};
  if (map != nullptr) {
    kernel = std::make_unique<sim::ParallelKernel>(regions, map->lookahead);
    kernel->set_region_distances(region_distance_matrix(w.topo, *map));
    queues.clear();
    for (std::uint32_t r = 0; r < regions; ++r) {
      queues.push_back(&kernel->region_queue(r));
    }
  }
  Logs logs(regions);
  std::function<void(const Send&)> send;
  const std::function<void(const Rx&)> on_rx = [&](const Rx& rx) {
    logs[region_of(rx.to)].push_back(rx);
    if (responds(rx)) send(response(rx));
  };

  // The network.
  class Sink : public PacketSink {
   public:
    Sink(const sim::EventQueue& q, const std::function<void(const Rx&)>& f)
        : queue_(&q), received_(&f) {}
    void on_receive(const Packet& p, const DeliveryInfo& i) override {
      (*received_)(Rx{i.receiver, p.source,
                      static_cast<const Tagged&>(*p.payload).tag(),
                      queue_->now(), i.path_delay, i.hops});
    }

   private:
    const sim::EventQueue* queue_;
    const std::function<void(const Rx&)>* received_;
  };
  std::vector<std::unique_ptr<MulticastNetwork>> nets;
  std::vector<std::unique_ptr<Sink>> sinks;

  // The reference: per destination region, one inbox lane per origin.
  struct Batch {
    std::vector<Item> items;  // walk order
    double sent_at;
    double first_arrival;
    std::uint32_t origin;
    std::uint64_t origin_seq;
    NodeId source;
    int tag;
  };
  std::vector<std::vector<std::vector<Batch>>> inbox(
      regions, std::vector<std::vector<Batch>>(regions));
  std::vector<std::uint64_t> shipped(regions, 0);
  const auto schedule = [&](std::uint32_t r, double sent_at, const Item& item,
                            NodeId source, int tag) {
    queues[r]->schedule_at(sent_at + item.delay, [=, &on_rx] {
      on_rx(Rx{item.to, source, tag, sent_at + item.delay, item.delay,
               item.hops});
    });
  };

  if (!eager) {
    for (std::uint32_t r = 0; r < regions; ++r) {
      nets.push_back(std::make_unique<MulticastNetwork>(*queues[r], w.topo));
    }
    if (map != nullptr) {
      std::vector<MulticastNetwork*> peers;
      for (const auto& net : nets) peers.push_back(net.get());
      for (std::uint32_t r = 0; r < regions; ++r) {
        nets[r]->enable_pdes(kernel.get(), map, r, peers);
      }
    }
    for (NodeId n = 0; n < w.topo.node_count(); ++n) {
      sinks.push_back(std::make_unique<Sink>(*queues[region_of(n)], on_rx));
      nets[region_of(n)]->attach(n, sinks.back().get());
      if (w.member[n]) nets[0]->join(kGroup, n);
    }
    send = [&](const Send& s) {
      Packet p;
      p.group = kGroup;
      p.payload = std::make_shared<Tagged>(s.tag);
      MulticastNetwork& net = *nets[region_of(s.from)];
      if (s.to == kInvalidNode) {
        net.multicast(s.from, p);
      } else {
        net.unicast(s.from, s.to, p);
      }
    };
  } else {
    send = [&](const Send& s) {
      const std::uint32_t origin = region_of(s.from);
      const double now = queues[origin]->now();
      std::vector<std::vector<Item>> remote(regions);
      for (const Item& item : receivers(w, s)) {
        const std::uint32_t r = region_of(item.to);
        if (r == origin) {
          schedule(r, now, item, s.from, s.tag);
        } else {
          remote[r].push_back(item);
        }
      }
      for (std::uint32_t r = 0; r < regions; ++r) {
        if (remote[r].empty()) continue;
        double nearest = remote[r].front().delay;
        for (const Item& item : remote[r]) {
          nearest = std::min(nearest, item.delay);
        }
        inbox[r][origin].push_back(Batch{std::move(remote[r]), now,
                                         now + nearest, origin,
                                         shipped[origin]++, s.from, s.tag});
      }
    };
    for (std::uint32_t r = 0; map != nullptr && r < regions; ++r) {
      kernel->set_drain_hook(r, [&, r] {
        std::vector<Batch> merged;
        for (std::vector<Batch>& lane : inbox[r]) {
          for (Batch& b : lane) merged.push_back(std::move(b));
          lane.clear();
        }
        std::sort(merged.begin(), merged.end(),
                  [](const Batch& a, const Batch& b) {
                    return std::tie(a.first_arrival, a.origin, a.origin_seq) <
                           std::tie(b.first_arrival, b.origin, b.origin_seq);
                  });
        for (const Batch& b : merged) {
          for (const Item& item : b.items) {
            schedule(r, b.sent_at, item, b.source, b.tag);
          }
        }
        return static_cast<std::uint64_t>(merged.size());
      });
    }
  }

  for (const Send& s : w.sends) {
    queues[region_of(s.from)]->schedule_at(s.at, [&send, s] { send(s); });
  }
  if (kernel) {
    kernel->run(threads);
  } else {
    sequential.run();
  }
  return logs;
}

std::vector<Rx> sorted(const Logs& logs) {
  std::vector<Rx> all;
  for (const std::vector<Rx>& log : logs) {
    all.insert(all.end(), log.begin(), log.end());
  }
  std::sort(all.begin(), all.end(), [](const Rx& a, const Rx& b) {
    return std::tie(a.at, a.to, a.tag) < std::tie(b.at, b.to, b.tag);
  });
  return all;
}

void expect_same(const Logs& got, const Logs& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE("region " + std::to_string(r));
    ASSERT_EQ(got[r].size(), want[r].size());
    for (std::size_t k = 0; k < got[r].size(); ++k) {
      ASSERT_EQ(got[r][k], want[r][k]) << "delivery " << k;
    }
  }
}

TEST(PdesChainOrderTest, ConcurrentChainsMatchEagerScheduling) {
  for (bool uniform : {true, false}) {
    std::size_t deliveries = 0;
    std::size_t ties = 0;  // adjacent deliveries of two chains at one instant
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(uniform ? "uniform" : "distinct") +
                   " delays, seed " + std::to_string(seed));
      const World w = make_world(seed * 7919 + (uniform ? 0 : 1), uniform);

      const Logs got = run(w, false, nullptr, 1);
      expect_same(got, run(w, true, nullptr, 1));
      const std::vector<Rx>& log = got.front();
      for (std::size_t k = 1; k < log.size(); ++k) {
        ties += log[k].at == log[k - 1].at && log[k].tag != log[k - 1].tag;
      }
      deliveries += log.size();

      const RegionMap map = partition_regions(w.topo, 2);
      ASSERT_EQ(map.count, 2u);
      const Logs pdes = run(w, false, &map, 2);
      expect_same(pdes, run(w, true, &map, 2));
      // The same deliveries as the sequential kernel, whatever their order
      // across regions.
      EXPECT_EQ(sorted(pdes), sorted(got));
    }
    EXPECT_GT(deliveries, 10000u);
    EXPECT_GT(ties, 1000u);
  }
}

}  // namespace
}  // namespace srm::net
