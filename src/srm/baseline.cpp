#include "srm/baseline.h"

#include <algorithm>
#include <cmath>

namespace srm::baseline {

namespace {

// Retransmit-timer backoff while waiting for the repair, in units of the
// receiver's RTT to the source (TCP-style; first wait = 1 RTT beyond the
// expected repair time).
constexpr double kRetransmitRttMultiplier = 2.0;
constexpr double kBackoffFactor = 2.0;
constexpr int kMaxRetries = 16;
// When multicasting repairs, the source suppresses retransmissions of the
// same ADU for this many seconds times its farthest-receiver distance
// (crude duplicate damping a real sender-based scheme would need).
constexpr double kMulticastHolddownRtts = 1.0;

}  // namespace

NackAgent::NackAgent(net::MulticastNetwork& network,
                     MemberDirectory& directory, net::NodeId node, SourceId id,
                     net::GroupId group, RepairMode repair_mode, util::Rng rng)
    : network_(&network),
      directory_(&directory),
      node_(node),
      id_(id),
      group_(group),
      repair_mode_(repair_mode),
      rng_(std::move(rng)) {}

NackAgent::~NackAgent() {
  if (started_) stop();
}

void NackAgent::start() {
  if (started_) return;
  started_ = true;
  directory_->bind(id_, node_);
  network_->attach(node_, this);
  network_->join(group_, node_);
}

void NackAgent::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& [name, p] : pending_) {
    if (p.retransmit_timer) p.retransmit_timer->cancel();
  }
  network_->leave(group_, node_);
  network_->detach(node_);
  directory_->unbind(id_);
}

DataName NackAgent::send_data(const PageId& page, Payload payload) {
  const SeqNo seq = next_seq_[page]++;
  const DataName name{id_, page, seq};
  auto shared = std::make_shared<const Payload>(std::move(payload));
  store_[name] = shared;
  next_expected_[StreamKey{id_, page}] = seq + 1;

  net::Packet packet;
  packet.group = group_;
  packet.payload = std::make_shared<DataMessage>(name, shared);
  network_->multicast(node_, std::move(packet));
  return name;
}

double NackAgent::rtt_to(SourceId peer) const {
  if (peer == id_) return 1e-9;
  return 2.0 * network_->distance(node_, directory_->node_of(peer));
}

void NackAgent::on_receive(const net::Packet& packet,
                           const net::DeliveryInfo&) {
  if (const auto* d = dynamic_cast<const DataMessage*>(packet.payload.get())) {
    handle_data(d->name(), d->payload());
  } else if (const auto* n =
                 dynamic_cast<const NackMessage*>(packet.payload.get())) {
    handle_nack(*n);
  }
}

void NackAgent::handle_data(const DataName& name, const PayloadPtr& payload) {
  const bool is_new = store_.emplace(name, payload).second;
  if (is_new) {
    if (auto it = pending_.find(name); it != pending_.end()) {
      ++stats_.recoveries;
      const double delay =
          network_->queue().now() - it->second.detect_time;
      stats_.recovery_delay_rtt.add(delay / it->second.rtt);
      it->second.retransmit_timer->cancel();
      pending_.erase(it);
    }
  }
  detect_gap(stream_of(name), name.seq);
}

void NackAgent::detect_gap(const StreamKey& stream, SeqNo seen) {
  if (stream.source == id_) return;
  SeqNo& expected = next_expected_[stream];
  for (SeqNo q = expected; q < seen; ++q) {
    const DataName missing{stream.source, stream.page, q};
    if (store_.count(missing) || pending_.count(missing)) continue;
    PendingLoss loss;
    loss.detect_time = network_->queue().now();
    loss.rtt = rtt_to(stream.source);
    loss.retransmit_timer = std::make_unique<sim::Timer>(
        network_->queue(), [this, missing] { send_nack(missing); });
    auto [it, inserted] = pending_.emplace(missing, std::move(loss));
    // NACK immediately — there is no suppression in the sender-based model.
    send_nack(missing);
    (void)it;
    (void)inserted;
  }
  expected = std::max(expected, seen + 1);
}

void NackAgent::send_nack(const DataName& name) {
  const auto it = pending_.find(name);
  if (it == pending_.end()) return;
  PendingLoss& loss = it->second;
  if (loss.retries > kMaxRetries) {
    pending_.erase(it);
    return;
  }
  ++stats_.nacks_sent;
  net::Packet packet;
  packet.group = group_;
  packet.payload = std::make_shared<NackMessage>(name, id_);
  network_->unicast(node_, directory_->node_of(name.source),
                    std::move(packet));
  // TCP-style retransmit timeout with exponential backoff.
  const double wait = kRetransmitRttMultiplier * loss.rtt *
                      std::pow(kBackoffFactor, loss.retries);
  ++loss.retries;
  loss.retransmit_timer->schedule_in(wait);
}

void NackAgent::handle_nack(const NackMessage& msg) {
  ++stats_.nacks_received;
  const auto data = store_.find(msg.name());
  if (data == store_.end()) return;  // nothing to retransmit

  if (repair_mode_ == RepairMode::kMulticast) {
    // Damp duplicate multicast retransmissions of the same ADU.
    const sim::Time now = network_->queue().now();
    auto [it, inserted] = repair_holddown_.try_emplace(msg.name(), 0.0);
    if (!inserted && now < it->second) return;
    double max_rtt = 0.0;
    for (SourceId m : directory_->members()) {
      if (m != id_) max_rtt = std::max(max_rtt, rtt_to(m));
    }
    it->second = now + kMulticastHolddownRtts * max_rtt;
    ++stats_.retransmissions;
    net::Packet packet;
    packet.group = group_;
    packet.payload = std::make_shared<DataMessage>(msg.name(), data->second);
    network_->multicast(node_, std::move(packet));
  } else {
    ++stats_.retransmissions;
    net::Packet packet;
    packet.group = group_;
    packet.payload = std::make_shared<DataMessage>(msg.name(), data->second);
    network_->unicast(node_, directory_->node_of(msg.requestor()),
                      std::move(packet));
  }
}

}  // namespace srm::baseline
