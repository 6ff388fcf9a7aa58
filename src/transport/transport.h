// Transport: the seam between the SRM protocol machine and whatever moves
// its packets (ARCHITECTURE.md §13).  srm::SrmAgent (and everything layered
// on it — FecSession, SessionHierarchy, the whiteboard) speaks only this
// interface.  Each backend is one object that hosts every endpoint: the
// discrete-event simulator's net::MulticastNetwork (src/net/network.h) or a
// real UDP multicast socket on loopback (UdpTransport,
// src/transport/udp_transport.h).
//
// The contract is the IP-multicast group service of Sec. I:
//
//   * a timer/clock service — a sim::EventQueue whose now() is the backend's
//     time base.  The network hands out the simulation queue (virtual
//     time); UdpTransport owns a private queue slaved to the monotonic
//     clock (seconds since construction), so sim::Timer / sim::LocalClock
//     and every timer the agent builds run unchanged over real sockets;
//   * endpoint lifecycle — attach/detach a PacketSink for a node, and
//     join/leave multicast groups on its behalf;
//   * framed sends — multicast(from, packet) with TTL and admin scope;
//   * a ground-truth distance oracle — try_distance() returns the one-way
//     delay when the backend knows it (the simulator's routing tables) and
//     +infinity when it does not (real sockets), which sends the agent to
//     its session-message estimator or config.default_distance, exactly the
//     position a real deployment is in;
//   * a receive filter — scripted receive-side loss, one per backend
//     object, consulted for every delivery to every endpoint it hosts just
//     before the sink would see the packet.  The workload runner
//     (src/workload/workload.h) installs one transport::DropScript this
//     way to inject the same loss pattern under sim and UDP.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "sim/event_queue.h"

namespace srm::transport {

// Scripted receive-side loss: return true to drop the packet before the
// attached sink sees it.  `info.receiver` names the endpoint, so one filter
// keyed on receiver, message kind and ADU sequence behaves identically on
// every backend.
using ReceiveFilter =
    std::function<bool(const net::Packet&, const net::DeliveryInfo&)>;

class Transport {
 public:
  virtual ~Transport() = default;

  // Timer/clock service.  The queue's now() is the backend time base; all
  // agent timers (sim::Timer), clocks (sim::LocalClock) and scheduled
  // actions run against it.
  virtual sim::EventQueue& queue() = 0;
  virtual const sim::EventQueue& queue() const = 0;

  // Endpoint lifecycle.  Backends follow the validate-then-acquire idiom:
  // all preconditions are checked (and, for UDP, all sockets acquired)
  // before any transport state mutates, and teardown releases in reverse
  // order of acquisition.
  virtual void attach(net::NodeId node, net::PacketSink* sink) = 0;
  virtual void detach(net::NodeId node) = 0;
  virtual void join(net::GroupId group, net::NodeId node) = 0;
  virtual void leave(net::GroupId group, net::NodeId node) = 0;

  // Sends one framed SRM message to every member of packet.group (except
  // the sender).  packet.source is stamped with `from`.
  virtual void multicast(net::NodeId from, net::Packet packet) = 0;

  // Ground-truth one-way delay from `from` to `to`, or +infinity when the
  // backend has no oracle (UdpTransport always; the simulator when the
  // nodes are disconnected).  Agents in DistanceMode::kOracle cache the
  // result keyed on topology_version().  Not const: the simulator's
  // routing cache fills lazily.
  virtual double try_distance(net::NodeId from, net::NodeId to) = 0;

  // Bumped whenever ground-truth distances may have changed (topology
  // mutations under fault plans).  Constant 0 on backends without an
  // oracle.
  virtual std::uint64_t topology_version() const = 0;

  // Installs (or clears, with an empty function) this backend's one
  // scripted receive-side drop filter; it applies to every endpoint the
  // backend hosts.
  virtual void set_receive_filter(ReceiveFilter filter) = 0;
};

}  // namespace srm::transport
