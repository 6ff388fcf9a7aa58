// Packet model for the simulated IP-multicast network.
//
// The network layer is application-agnostic: a Packet carries a type-erased,
// immutable payload (Message).  SRM defines its message types (DATA, REQUEST,
// REPAIR, SESSION) as subclasses in src/srm/messages.h.  The delivery model
// is best-effort IP multicast: possible loss (via DropPolicy), no ordering
// guarantee beyond per-path FIFO that falls out of fixed link delays.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

namespace srm::net {

using NodeId = std::uint32_t;
using GroupId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

// TTL value meaning "unlimited scope".
inline constexpr int kMaxTtl = 255;

// Delivery scope of a multicast packet (Sec. VII-B of the paper).
enum class Scope : std::uint8_t {
  kGlobal,  // normal multicast, limited only by TTL
  kAdmin,   // administratively scoped: confined to the sender's admin region
};

// Base class for application payloads.  Immutable after construction; shared
// by all deliveries of one transmission.
class Message {
 public:
  virtual ~Message() = default;

  // Human-readable tag for traces, e.g. "DATA floyd:5".
  virtual std::string describe() const = 0;

  // Nominal size in bytes; used for bandwidth accounting, not for timing.
  virtual std::size_t size_bytes() const { return 1000; }

  // Small integer identifying the message kind in structured trace events
  // (the `kind` field of net send/deliver/drop/prune records).  0 = untyped;
  // SRM message classes return the values documented in srm/messages.h.
  virtual std::uint32_t trace_kind() const { return 0; }
};

using MessagePtr = std::shared_ptr<const Message>;

struct Packet {
  NodeId source = kInvalidNode;   // originating end host
  GroupId group = 0;              // destination multicast group
  int ttl = kMaxTtl;              // initial TTL chosen by the sender
  Scope scope = Scope::kGlobal;
  MessagePtr payload;
};

// Metadata available to a receiver about one delivery.
struct DeliveryInfo {
  NodeId receiver = kInvalidNode;
  double path_delay = 0.0;  // one-way latency from sender, seconds
  int hops = 0;             // hop count from sender
  int remaining_ttl = 0;    // TTL left after traversal (initial ttl - hops)
};

// Interface implemented by protocol agents to receive packets.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_receive(const Packet& packet, const DeliveryInfo& info) = 0;
};

}  // namespace srm::net
