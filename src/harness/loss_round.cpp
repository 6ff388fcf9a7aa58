#include "harness/loss_round.h"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "net/drop_policy.h"
#include "srm/messages.h"

namespace srm::harness {

namespace {

// Virtual time between the dropped packet and the next one, whose arrival
// reveals the gap.
constexpr sim::Time kInterPacketGap = 1.0;

bool is_request(const net::Packet& p) {
  return message_cast<RequestMessage>(p.payload.get()) != nullptr;
}

bool is_repair(const net::Packet& p) {
  return message_cast<RepairMessage>(p.payload.get()) != nullptr;
}

}  // namespace

RoundResult run_loss_round(SimSession& session, const RoundSpec& spec,
                           SeqNo seq) {
  auto& net = session.network();
  auto& queue = session.queue();
  SrmAgent& source = session.agent_at(spec.source_node);
  const DataName dropped{source.id(), spec.page, seq};

  // --- instrumentation ------------------------------------------------------
  // Chain onto (and later restore) any observers already installed, e.g. a
  // ConformanceChecker or a bench's own counters.  Under the parallel kernel
  // there is one network per region, each observed on its own worker thread,
  // so every network gets its own recorder (no shared mutable state inside a
  // window); per-region records are folded after the run.  Timestamps come
  // from each network's own queue, which reads exactly what the sequential
  // clock would at that event.
  RoundResult result;
  const sim::Time round_start = session.now();
  struct Recorder {
    std::vector<double> request_times;
    std::vector<double> repair_times;
    std::vector<net::NodeId> repair_senders;
    std::vector<net::NodeId> repair_receivers;
    net::MulticastNetwork::SendObserver previous_send;
    net::MulticastNetwork::DeliveryObserver previous_delivery;
  };
  std::vector<Recorder> records(session.network_count());
  for (std::size_t r = 0; r < session.network_count(); ++r) {
    net::MulticastNetwork& n = session.network(r);
    Recorder& rec = records[r];
    rec.previous_send = n.send_observer();
    rec.previous_delivery = n.delivery_observer();
    n.set_send_observer([rec = &rec, n = &n, round_start](
                            net::NodeId from, const net::Packet& p) {
      if (is_request(p)) {
        rec->request_times.push_back(n->queue().now() - round_start);
      } else if (is_repair(p)) {
        rec->repair_times.push_back(n->queue().now() - round_start);
        rec->repair_senders.push_back(from);
      }
      if (rec->previous_send) rec->previous_send(from, p);
    });
    n.set_delivery_observer(
        [rec = &rec](const net::Packet& p, const net::DeliveryInfo& info) {
          if (is_repair(p)) rec->repair_receivers.push_back(info.receiver);
          if (rec->previous_delivery) rec->previous_delivery(p, info);
        });
  }
  // The recorders are stack-local: if the round throws (a fault plan ate the
  // drop or the source), the observers must come off before unwinding.
  const auto restore_observers = [&] {
    net.set_drop_policy(nullptr);
    for (std::size_t r = 0; r < session.network_count(); ++r) {
      session.network(r).set_send_observer(
          std::move(records[r].previous_send));
      session.network(r).set_delivery_observer(
          std::move(records[r].previous_delivery));
    }
  };

  // Snapshot per-agent sample counts so only this round's samples are read.
  // Keyed by node: members may crash, leave or join during the round, which
  // reorders the member list.  A node with no member at round start keeps
  // zero counts — a member that joined mid-round has no earlier samples.
  struct Snapshot {
    std::size_t recoveries = 0;
    std::size_t request_delays = 0;
  };
  std::vector<Snapshot> before(session.topology().node_count());
  for (net::NodeId node : session.member_nodes()) {
    const AgentMetrics& m = session.agent_at(node).metrics();
    before[node] = Snapshot{m.recovery_delay_seconds.values().size(),
                            m.request_delay_rtt.values().size()};
  }
  const std::uint64_t links_before = session.network_stats().link_transmissions;

  // --- the loss -------------------------------------------------------------
  auto drop = std::make_shared<net::ScriptedLinkDrop>(
      spec.congested.from, spec.congested.to,
      [dropped](const net::Packet& p) {
        const auto* d = message_cast<DataMessage>(p.payload.get());
        return d != nullptr && d->name() == dropped;
      });
  net.set_drop_policy(drop);

  const auto send = [&spec](SrmAgent& agent, Payload payload) {
    return spec.send_fn ? spec.send_fn(agent, spec.page, std::move(payload))
                        : agent.send_data(spec.page, std::move(payload));
  };
  try {
    const DataName sent = send(source, Payload{0xAB});
    if (sent != dropped) {
      throw std::logic_error("run_loss_round: unexpected sequence number");
    }
    queue.schedule_after(kInterPacketGap, [&source, &send] {
      send(source, Payload{0xCD});
    });
    session.run();

    if (drop->drops_so_far() != 1) {
      throw std::logic_error("run_loss_round: packet was not dropped");
    }
  } catch (...) {
    restore_observers();
    throw;
  }

  // --- fold per-network records --------------------------------------------
  // Each recorder's vectors are time-ordered (its queue's clock is
  // monotone), and the folded values are plain timestamps/node-ids, so a
  // sorted merge reproduces the sequential recording exactly — equal
  // timestamps are indistinguishable in the result, and the reach sets are
  // order-free.
  std::set<net::NodeId> repair_reach;
  for (const Recorder& rec : records) {
    result.requests += rec.request_times.size();
    result.repairs += rec.repair_times.size();
    result.request_times.insert(result.request_times.end(),
                                rec.request_times.begin(),
                                rec.request_times.end());
    result.repair_times.insert(result.repair_times.end(),
                               rec.repair_times.begin(),
                               rec.repair_times.end());
    repair_reach.insert(rec.repair_senders.begin(), rec.repair_senders.end());
    repair_reach.insert(rec.repair_receivers.begin(),
                        rec.repair_receivers.end());
  }
  std::sort(result.request_times.begin(), result.request_times.end());
  std::sort(result.repair_times.begin(), result.repair_times.end());

  // --- collection -----------------------------------------------------------
  const auto affected = affected_members(net.routing(), spec.source_node,
                                         spec.congested,
                                         session.member_nodes());
  result.affected = affected.size();
  result.link_transmissions =
      session.network_stats().link_transmissions - links_before;

  // A member can be unreachable at collection time when a fault plan left
  // the topology partitioned; try_distance reads that as infinity.
  double min_dist = std::numeric_limits<double>::infinity();
  for (net::NodeId m : affected) {
    min_dist = std::min(min_dist, net.try_distance(spec.source_node, m));
  }

  double max_abs_delay = -1.0;
  double closest_req_delay = std::numeric_limits<double>::infinity();
  for (net::NodeId m : affected) {
    SrmAgent& agent = session.agent_at(m);
    const AgentMetrics& metrics = agent.metrics();
    const Snapshot& snap = before[m];

    const auto& delays = metrics.recovery_delay_seconds.values();
    const auto& delays_rtt = metrics.recovery_delay_rtt.values();
    if (delays.size() > snap.recoveries) {
      ++result.recovered;
      // Exactly one loss per round, so at most one new sample.
      const double abs = delays.back();
      if (abs > max_abs_delay) {
        max_abs_delay = abs;
        result.last_member_delay_rtt = delays_rtt.back();
        result.max_delay_seconds = abs;
      }
    }
    const auto& req_delays = metrics.request_delay_rtt.values();
    if (req_delays.size() > snap.request_delays &&
        net.try_distance(spec.source_node, m) <= min_dist) {
      closest_req_delay = std::min(closest_req_delay, req_delays.back());
    }
  }
  if (closest_req_delay < std::numeric_limits<double>::infinity()) {
    result.closest_request_delay_rtt = closest_req_delay;
    result.closest_request_delay_valid = true;
  }
  result.members_reached_by_repair = repair_reach.size();

  // --- teardown -------------------------------------------------------------
  restore_observers();
  return result;
}

}  // namespace srm::harness
