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
#include <mutex>
#include <string>
#include <utility>
#include <vector>

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

// Freelist pool for Message subclasses.
//
// MulticastNetwork already shares one immutable Packet (and thus one
// Message) across every delivery of a transmission; the pool closes the
// remaining per-send allocation by recycling the message object itself once
// the last in-flight delivery drops its reference.  It serves request and
// repair messages, which own no tables.  Session messages are not pooled: a
// recycled one would hold its per-peer tables between reports, so they are
// built per send and freed with their last delivery.  T must provide
// `rebind(Args...)` mirroring the constructor used with acquire(); rebind
// is only invoked on objects no delivery can still see, so Message
// immutability holds for every observer.
//
// The freelist is shared-ownership: messages returned after the pool is
// destroyed are freed normally.  It is built by the first acquire(), so a
// pool that never sends (most members never request or repair) holds no
// mutex and no freelist.  acquire() runs on the owner's thread, but
// under the parallel kernel the last reference to a message can drop on
// another region's worker (the tail of a remote delivery chain), so the
// freelist is guarded by a mutex.  It is uncontended in practice: the two
// sides meet only when a remote chain ends while its sender acquires.
template <typename T>
class MessagePool {
 public:
  template <typename... Args>
  std::shared_ptr<T> acquire(Args&&... args) {
    if (!store_) store_ = std::make_shared<Store>();
    std::unique_ptr<T> recycled;
    {
      const std::lock_guard<std::mutex> lock(store_->mu);
      if (!store_->free.empty()) {
        recycled = std::move(store_->free.back());
        store_->free.pop_back();
      }
    }
    T* raw = nullptr;
    if (recycled) {
      recycled->rebind(std::forward<Args>(args)...);
      raw = recycled.release();
    } else {
      raw = new T(std::forward<Args>(args)...);
    }
    // The deleter returns the object to the freelist instead of freeing it
    // (bounded; overflow deletes).  It keeps the store alive by value.
    return std::shared_ptr<T>(raw, [store = store_](T* p) {
      const std::lock_guard<std::mutex> lock(store->mu);
      if (store->free.size() < kMaxFree) {
        store->free.emplace_back(p);
      } else {
        delete p;
      }
    });
  }

  std::size_t free_count() const {
    if (!store_) return 0;
    const std::lock_guard<std::mutex> lock(store_->mu);
    return store_->free.size();
  }

 private:
  // One multicast keeps at most one message in flight per sender; the cap
  // only matters if a burst of sends overlaps many pending deliveries.
  static constexpr std::size_t kMaxFree = 64;

  struct Store {
    std::mutex mu;
    std::vector<std::unique_ptr<T>> free;
  };
  std::shared_ptr<Store> store_;  // null until the first acquire()
};

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
