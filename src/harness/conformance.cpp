#include "harness/conformance.h"

#include <cmath>
#include <sstream>

namespace srm::harness {

ConformanceChecker::ConformanceChecker(net::MulticastNetwork& network,
                                       MemberDirectory& directory)
    : network_(&network), directory_(&directory) {
  previous_send_ = network_->send_observer();
  previous_delivery_ = network_->delivery_observer();
  network_->set_send_observer([this](net::NodeId from,
                                     const net::Packet& packet) {
    on_send(from, packet);
    if (previous_send_) previous_send_(from, packet);
  });
  network_->set_delivery_observer(
      [this](const net::Packet& packet, const net::DeliveryInfo& info) {
        on_delivery(packet, info);
        if (previous_delivery_) previous_delivery_(packet, info);
      });
  attached_ = true;
}

ConformanceChecker::~ConformanceChecker() { detach(); }

void ConformanceChecker::detach() {
  if (!attached_) return;
  attached_ = false;
  network_->set_send_observer(previous_send_);
  network_->set_delivery_observer(previous_delivery_);
}

void ConformanceChecker::forget(net::NodeId node) {
  holds_.erase(node);
  repaired_.erase(node);
  std::erase_if(last_repair_send_,
                [node](const auto& entry) { return entry.first.first == node; });
}

void ConformanceChecker::flag(const std::string& rule,
                              const std::string& detail) {
  violations_.push_back(Violation{rule, detail, network_->queue().now()});
}

void ConformanceChecker::on_send(net::NodeId from, const net::Packet& packet) {
  const double now = network_->queue().now();

  if (const auto* data =
          dynamic_cast<const DataMessage*>(packet.payload.get())) {
    ++data_seen_;
    const DataName& name = data->name();
    holds_[from].insert(name);
    // 5. strictly increasing per-page sequence numbers from each source.
    const auto key = std::make_pair(from, name.page);
    if (any_sent_.count(key) && name.seq <= last_sent_seq_[key]) {
      flag("sequencing", "node " + std::to_string(from) + " sent seq " +
                             std::to_string(name.seq) + " after " +
                             std::to_string(last_sent_seq_[key]));
    }
    any_sent_.insert(key);
    last_sent_seq_[key] = name.seq;
    // 4. payload consistency.
    const Payload& p = data->payload() ? *data->payload() : Payload{};
    auto [it, inserted] = canonical_.try_emplace(name, p);
    if (!inserted && it->second != p) {
      flag("payload-consistency",
           "DATA " + to_string(name) + " differs from first transmission");
    }
    return;
  }

  if (const auto* req =
          dynamic_cast<const RequestMessage*>(packet.payload.get())) {
    ++requests_seen_;
    const DataName& name = req->name();
    // 1. no request for data this member demonstrably has.
    if (holds_[from].count(name)) {
      flag("no-request-for-held-data",
           "node " + std::to_string(from) + " requested " + to_string(name) +
               " which it holds");
    }
    // 2. no request after a received repair for the same name.
    if (repaired_[from].count(name)) {
      flag("no-request-after-repair",
           "node " + std::to_string(from) + " requested " + to_string(name) +
               " after its repair");
    }
    return;
  }

  if (const auto* rep =
          dynamic_cast<const RepairMessage*>(packet.payload.get())) {
    ++repairs_seen_;
    const DataName& name = rep->name();
    holds_[from].insert(name);  // sending a repair proves possession
    // 3. hold-down: two repairs for one name from one member must be
    // separated by at least holddown * d(member, data source).  Step-two
    // local repairs are re-multicasts by the requestor (responder and first
    // requestor both name it), exempt by design; a step-one repair starts
    // the responder's hold-down like any other.
    const bool step_two =
        !rep->local_step_one() && rep->responder() == rep->first_requestor();
    if (!step_two) {
      const auto key = std::make_pair(from, name);
      const auto it = last_repair_send_.find(key);
      if (it != last_repair_send_.end()) {
        double d = 1.0;
        try {
          const net::NodeId src_node = directory_->node_of(name.source);
          d = from == src_node ? 0.0
                               : network_->try_distance(from, src_node);
          // Source partitioned away: no meaningful hold-down bound either.
          if (std::isinf(d)) d = 0.0;
        } catch (const std::out_of_range&) {
          d = 0.0;  // source departed; no meaningful hold-down bound
        }
        const double gap = network_->queue().now() - it->second;
        if (d > 0.0 && gap < kHolddownMultiplier * d - 1e-9) {
          std::ostringstream os;
          os << "node " << from << " repaired " << to_string(name)
             << " twice within " << gap << "s (holddown "
             << kHolddownMultiplier * d << "s)";
          flag("holddown", os.str());
        }
      }
      last_repair_send_[key] = now;
    }
    // 4. payload consistency for repairs too.
    const Payload& p = rep->payload() ? *rep->payload() : Payload{};
    auto [it2, inserted] = canonical_.try_emplace(name, p);
    if (!inserted && it2->second != p) {
      flag("payload-consistency",
           "REPAIR " + to_string(name) + " differs from original data");
    }
    return;
  }
}

void ConformanceChecker::on_delivery(const net::Packet& packet,
                                     const net::DeliveryInfo& info) {
  if (const auto* data =
          dynamic_cast<const DataMessage*>(packet.payload.get())) {
    holds_[info.receiver].insert(data->name());
    return;
  }
  if (const auto* rep =
          dynamic_cast<const RepairMessage*>(packet.payload.get())) {
    holds_[info.receiver].insert(rep->name());
    repaired_[info.receiver].insert(rep->name());
    // 6. scoping: hops within the initial TTL.
    if (info.hops > rep->initial_ttl()) {
      flag("scoping", "REPAIR " + to_string(rep->name()) + " traveled " +
                          std::to_string(info.hops) + " hops with ttl " +
                          std::to_string(rep->initial_ttl()));
    }
    return;
  }
  if (const auto* req =
          dynamic_cast<const RequestMessage*>(packet.payload.get())) {
    if (info.hops > req->initial_ttl()) {
      flag("scoping", "REQUEST " + to_string(req->name()) + " traveled " +
                          std::to_string(info.hops) + " hops with ttl " +
                          std::to_string(req->initial_ttl()));
    }
  }
}

std::string ConformanceChecker::report() const {
  std::ostringstream os;
  os << violations_.size() << " violation(s)\n";
  for (const Violation& v : violations_) {
    os << "  [" << v.rule << "] t=" << v.when << ": " << v.detail << "\n";
  }
  return os.str();
}

}  // namespace srm::harness
