// The simulator's Transport backend is net::MulticastNetwork itself: used
// through the Transport interface it must keep the simulator's delivery
// semantics exactly, and its one receive filter must hide dropped packets
// from the sink and from nothing else.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "net/drop_policy.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/event_queue.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "trace/trace.h"
#include "transport/transport.h"

namespace srm::transport {
namespace {

struct Capture final : net::PacketSink {
  std::vector<net::Packet> packets;
  std::vector<net::DeliveryInfo> infos;
  void on_receive(const net::Packet& packet,
                  const net::DeliveryInfo& info) override {
    packets.push_back(packet);
    infos.push_back(info);
  }
};

net::Packet make_data(net::NodeId source, SeqNo seq) {
  net::Packet p;
  p.source = source;
  p.group = 1;
  p.payload = std::make_shared<DataMessage>(
      DataName{/*source=*/0, PageId{0, 1}, seq}, nullptr);
  return p;
}

SeqNo seq_of(const net::Packet& packet) {
  return static_cast<const DataMessage&>(*packet.payload).name().seq;
}

TEST(NetworkBackend, DeliversWithOracleMetadata) {
  const topo::Star star = topo::make_star(2, /*link_delay=*/0.5);
  sim::EventQueue queue;
  net::MulticastNetwork network(queue, star.topo);
  Transport& backend = network;

  Capture sender_sink;
  Capture sink;
  backend.attach(star.leaves[0], &sender_sink);
  backend.attach(star.leaves[1], &sink);
  backend.join(1, star.leaves[0]);
  backend.join(1, star.leaves[1]);

  EXPECT_EQ(&backend.queue(), &queue);
  backend.multicast(star.leaves[0], make_data(star.leaves[0], 0));
  queue.run();

  EXPECT_TRUE(sender_sink.packets.empty());  // no self-delivery
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.infos[0].receiver, star.leaves[1]);
  EXPECT_DOUBLE_EQ(sink.infos[0].path_delay, 1.0);  // two 0.5 s hops
  EXPECT_EQ(sink.infos[0].hops, 2);
  // The sim backend exposes the topology oracle.
  EXPECT_DOUBLE_EQ(backend.try_distance(star.leaves[0], star.leaves[1]), 1.0);
  EXPECT_EQ(backend.topology_version(), network.topology().version());
}

TEST(NetworkBackend, ReceiveFilterDropsMatchingPackets) {
  const topo::Star star = topo::make_star(3, 0.1);
  sim::EventQueue queue;
  net::MulticastNetwork network(queue, star.topo);
  Transport& backend = network;

  Capture filtered;
  Capture other;
  backend.attach(star.leaves[1], &filtered);
  backend.attach(star.leaves[2], &other);
  for (net::NodeId leaf : star.leaves) backend.join(1, leaf);

  // One filter for the whole backend, keyed by receiver: only seq 0 at
  // leaf 1 is dropped.
  std::size_t dropped = 0;
  const net::NodeId victim = star.leaves[1];
  backend.set_receive_filter(
      [&dropped, victim](const net::Packet& packet,
                         const net::DeliveryInfo& info) {
        const bool drop = info.receiver == victim && seq_of(packet) == 0;
        if (drop) ++dropped;
        return drop;
      });
  backend.multicast(star.leaves[0], make_data(star.leaves[0], 0));
  backend.multicast(star.leaves[0], make_data(star.leaves[0], 1));
  queue.run();

  ASSERT_EQ(filtered.packets.size(), 1u);
  EXPECT_EQ(seq_of(filtered.packets[0]), 1u);
  EXPECT_EQ(other.packets.size(), 2u);
  EXPECT_EQ(dropped, 1u);

  // An empty filter clears it.
  backend.set_receive_filter(nullptr);
  backend.multicast(star.leaves[0], make_data(star.leaves[0], 0));
  queue.run();
  ASSERT_EQ(filtered.packets.size(), 2u);
  EXPECT_EQ(seq_of(filtered.packets[1]), 0u);
  EXPECT_EQ(dropped, 1u);
}

TEST(NetworkBackend, DetachStopsDelivery) {
  const topo::Star star = topo::make_star(2, 0.1);
  sim::EventQueue queue;
  net::MulticastNetwork network(queue, star.topo);
  Transport& backend = network;

  Capture sink;
  backend.attach(star.leaves[1], &sink);
  backend.join(1, star.leaves[0]);
  backend.join(1, star.leaves[1]);

  backend.leave(1, star.leaves[1]);
  backend.detach(star.leaves[1]);
  backend.multicast(star.leaves[0], make_data(star.leaves[0], 0));
  queue.run();
  EXPECT_TRUE(sink.packets.empty());
}

// The filter runs where the sink would be called: after the delivery is
// counted and traced, before the delivery observer.  So with a filter that
// drops everything, the network's stats, its full net and sim trace and
// the observer's count equal those of an unfiltered run; only the sinks see
// a difference.  Random loss and a mid-flight detach put drops and
// invalidations into the comparison.
struct FilterRun {
  net::NetworkStats stats;
  std::vector<trace::Event> events;
  std::size_t observed = 0;
  std::size_t sunk = 0;
};

FilterRun run_filtered(bool drop_all) {
  const net::Topology topo = topo::make_bounded_degree_tree(40, 3, 0.1);
  sim::EventQueue queue;
  net::MulticastNetwork network(queue, topo);
  trace::VectorSink events;
  trace::Tracer tracer;
  tracer.set_sink(&events);
  tracer.set_mask(trace::kMaskAll);
  queue.set_tracer(&tracer);
  network.set_tracer(&tracer);
  network.set_drop_policy(std::make_shared<net::RandomDrop>(0.1, 7));

  const std::vector<net::NodeId> members = {3, 8, 13, 21, 30, 39};
  std::vector<Capture> sinks(members.size());
  Transport& backend = network;
  for (std::size_t i = 0; i < members.size(); ++i) {
    backend.attach(members[i], &sinks[i]);
    backend.join(1, members[i]);
  }
  FilterRun run;
  network.set_delivery_observer(
      [&run](const net::Packet&, const net::DeliveryInfo&) { ++run.observed; });
  if (drop_all) {
    backend.set_receive_filter(
        [](const net::Packet&, const net::DeliveryInfo&) { return true; });
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    queue.schedule_at(0.05 * static_cast<double>(i), [&backend, &members, i] {
      backend.multicast(members[i],
                        make_data(members[i], static_cast<SeqNo>(i)));
    });
  }
  queue.schedule_at(0.12, [&backend] { backend.detach(21); });
  queue.run();

  run.stats = network.stats();
  run.events = events.events();
  for (const Capture& sink : sinks) run.sunk += sink.packets.size();
  return run;
}

TEST(NetworkBackend, FilterHidesDropsOnlyFromTheSink) {
  const FilterRun open = run_filtered(false);
  const FilterRun filtered = run_filtered(true);

  EXPECT_GT(open.sunk, 0u);
  EXPECT_EQ(filtered.sunk, 0u);
  EXPECT_EQ(filtered.observed, open.observed);
  EXPECT_EQ(open.observed, open.sunk);

  EXPECT_EQ(filtered.stats.multicasts_sent, open.stats.multicasts_sent);
  EXPECT_EQ(filtered.stats.link_transmissions, open.stats.link_transmissions);
  EXPECT_EQ(filtered.stats.deliveries, open.stats.deliveries);
  EXPECT_EQ(filtered.stats.drops, open.stats.drops);
  EXPECT_EQ(filtered.stats.ttl_prunes, open.stats.ttl_prunes);
  EXPECT_EQ(filtered.stats.in_flight_invalidated,
            open.stats.in_flight_invalidated);
  EXPECT_GT(open.stats.drops, 0u);
  EXPECT_GT(open.stats.in_flight_invalidated, 0u);

  EXPECT_FALSE(open.events.empty());
  EXPECT_TRUE(filtered.events == open.events);
}

}  // namespace
}  // namespace srm::transport
