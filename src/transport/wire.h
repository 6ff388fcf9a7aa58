// Wire framing for SRM messages over a real datagram transport
// (ARCHITECTURE.md §13).  The simulator passes typed srm::Message objects
// by pointer; UdpTransport needs real bytes.  One frame = one UDP datagram:
//
//   offset  field
//   ------  --------------------------------------------------------------
//   0       u32  magic 0x53524D46 ("SRMF")
//   4       u8   version (kWireVersion)
//   5       u8   kind (srm trace_kind: 1=DATA .. 6=PAGE-REPLY)
//   6       u8   scope (net::Scope)
//   7       u8   reserved (0)
//   8       u32  source node id
//   12      u32  group id
//   16      u16  ttl
//   18      u16  reserved (0)
//   20      kind-specific body (see wire.cpp)
//
// All integers little-endian; doubles are IEEE-754 bit patterns, each a
// time or a distance.  Decoding is defensive: any truncated, oversized or
// unknown frame, or one carrying a non-finite or negative double, is rejected
// (decode returns false) rather than trusted — the socket is a public
// input.  Decoded REQUEST/REPAIR/SESSION messages come from
// net::MessagePool freelists (DecodePools), so a steady receive stream
// settles into zero per-datagram message allocations, mirroring the
// send-side pooling in srm::SrmAgent.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "srm/messages.h"

namespace srm::transport {

inline constexpr std::uint32_t kWireMagic = 0x53524D46u;  // "SRMF"
inline constexpr std::uint8_t kWireVersion = 1;
// One frame must fit one UDP datagram with headroom for UDP/IP headers.
inline constexpr std::size_t kMaxFrameBytes = 60000;

// Per-transport receive-side message freelists (the pool contract requires
// rebind(); DATA and the page messages are constructed fresh — they carry
// shared payload/vector state that deliveries keep referencing).
struct DecodePools {
  net::MessagePool<RequestMessage> requests;
  net::MessagePool<RepairMessage> repairs;
  net::MessagePool<SessionMessage> sessions;
  // Scratch tables the next session message is rebuilt into; capacity
  // circulates between these and pooled messages via rebind's swap.
  SessionMessage::StateReport state_scratch;
  SessionMessage::Echoes echo_scratch;
  SessionMessage::AreaDigests digest_scratch;
};

// Serializes `packet` (source/group/ttl/scope + typed SRM payload) into
// `out` (cleared first; capacity retained).  Returns false when the payload
// is not one of the six SRM message types or the frame would exceed
// kMaxFrameBytes.
bool encode_frame(const net::Packet& packet, std::vector<std::uint8_t>& out);

// Parses one datagram back into a packet.  On success `out.payload` holds a
// freshly decoded message (pooled where possible) and header fields are
// restored; on failure `out` is untouched and false is returned.
bool decode_frame(const std::uint8_t* data, std::size_t len,
                  DecodePools& pools, net::Packet& out);

}  // namespace srm::transport
