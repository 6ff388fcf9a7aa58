// DropScript: scripted receive-side loss for either Transport backend
// (ARCHITECTURE.md §13).  Rules name the receiving node, so the script
// installed as a backend's one receive filter drops the same packets on the
// simulator and on UDP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "srm/messages.h"
#include "transport/transport.h"

namespace srm::transport {

class DropScript {
 public:
  DropScript() = default;
  // filter() hands out closures over `this`.
  DropScript(const DropScript&) = delete;
  DropScript& operator=(const DropScript&) = delete;

  // Drops the next `count` messages of `kind` (trace_kind: 1=DATA,
  // 2=REQUEST, 3=REPAIR) naming ADU seq `seq` that arrive at node
  // `receiver`; a `source` other than kInvalidSource also requires the
  // ADU's Source-ID.
  void arm(net::NodeId receiver, std::uint32_t kind, SeqNo seq,
           std::size_t count, SourceId source = kInvalidSource) {
    rules_.push_back(Rule{receiver, kind, seq, source, count});
  }

  // The first armed rule that matches and has drops left fires.
  bool should_drop(const net::Packet& packet, const net::DeliveryInfo& info) {
    const DataName* name = adu_name(packet);
    if (name == nullptr) return false;
    for (Rule& rule : rules_) {
      if (rule.remaining > 0 && rule.receiver == info.receiver &&
          rule.kind == packet.payload->trace_kind() && rule.seq == name->seq &&
          (rule.source == kInvalidSource || rule.source == name->source)) {
        --rule.remaining;
        ++fired_;
        return true;
      }
    }
    return false;
  }

  // A receive filter over this script, which must outlive the filter.
  ReceiveFilter filter() {
    return [this](const net::Packet& packet, const net::DeliveryInfo& info) {
      return should_drop(packet, info);
    };
  }

  std::size_t fired() const { return fired_; }

 private:
  struct Rule {
    net::NodeId receiver;
    std::uint32_t kind;
    SeqNo seq;
    SourceId source;
    std::size_t remaining;
  };

  // The ADU a DATA, REQUEST or REPAIR names; null for any other packet.
  static const DataName* adu_name(const net::Packet& packet) {
    if (!packet.payload) return nullptr;
    const net::Message& msg = *packet.payload;
    switch (msg.trace_kind()) {
      case 1:
        return &static_cast<const DataMessage&>(msg).name();
      case 2:
        return &static_cast<const RequestMessage&>(msg).name();
      case 3:
        return &static_cast<const RepairMessage&>(msg).name();
      default:
        return nullptr;
    }
  }

  std::vector<Rule> rules_;
  std::size_t fired_ = 0;
};

}  // namespace srm::transport
