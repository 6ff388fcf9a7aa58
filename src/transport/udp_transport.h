// UdpTransport: the Transport backend over real UDP multicast on the
// loopback interface (ARCHITECTURE.md §13).
//
// One instance owns one datagram socket and hosts any number of endpoints
// (agents attach by node id, exactly as on the simulator backend).  Group
// id g maps to the administratively scoped multicast address 239.255.G1.G0
// (G1G0 = g mod 2^16); every transport in every process binds the same UDP
// port with SO_REUSEADDR/SO_REUSEPORT and joins the group, so frames a
// member multicasts loop back through the kernel to every joined socket on
// the host.  Self-delivery is filtered by the frame's source node id —
// delivery to the sending endpoint is suppressed, to all others allowed,
// which reproduces IP-multicast semantics for co-located endpoints.
//
// Construction follows the validate-then-acquire lifecycle: options are
// validated first (cheap checks), then the socket is created and fully
// configured (bind, multicast interface, loopback, TTL) before any object
// state becomes observable; a failure at any step throws TransportError
// with nothing half-acquired, and teardown releases in reverse order.
//
// Time: the transport owns a private sim::EventQueue slaved to the
// monotonic clock — virtual time = seconds since construction.  run_for()
// alternately fires due timers (queue().run_until(elapsed())) and sleeps in
// poll(2) until the next timer deadline or a datagram arrives, so the
// agents' sim::Timer machinery runs unchanged over real sockets with
// timer-firing latency bounded by poll wake-up (sub-millisecond when
// sockets are active, <= poll_granularity when idle).
//
// There is no distance oracle: try_distance() returns +infinity and
// topology_version() is constant 0, so agents fall back to session-message
// estimation or config.default_distance — the same information a real
// deployment has.
//
// One thread: the socket, the queue and every attached agent belong to the
// thread that constructed the transport.  poll_once (and so run_for and
// run_until_idle) and multicast throw std::logic_error on any other thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/event_queue.h"
#include "transport/transport.h"

namespace srm::transport {

class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct UdpOptions {
  // Interface carrying the multicast traffic.  Loopback keeps the suite
  // self-contained; any interface address works.
  std::string interface_address = "127.0.0.1";
  // UDP port shared by all transports of one session.  0 derives a port
  // from the process id (stable within a process, disjoint across
  // concurrent CI jobs).
  std::uint16_t port = 0;
  // Upper bound on one poll(2) sleep; bounds timer-firing latency while the
  // socket is idle.
  double poll_granularity = 0.002;
};

class UdpTransport final : public Transport {
 public:
  explicit UdpTransport(UdpOptions options = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // True when this environment supports the full loopback-multicast path:
  // probes by opening a transport on a scratch port and round-tripping one
  // frame between two endpoints.  Tests and CI smokes gate on this instead
  // of failing in containers without multicast support.
  static bool available();

  // --- Transport ----------------------------------------------------------
  sim::EventQueue& queue() override { return queue_; }
  const sim::EventQueue& queue() const override { return queue_; }
  void attach(net::NodeId node, net::PacketSink* sink) override;
  void detach(net::NodeId node) override;
  void join(net::GroupId group, net::NodeId node) override;
  void leave(net::GroupId group, net::NodeId node) override;
  void multicast(net::NodeId from, net::Packet packet) override;
  double try_distance(net::NodeId, net::NodeId) override;
  std::uint64_t topology_version() const override { return 0; }
  void set_receive_filter(ReceiveFilter filter) override {
    filter_ = std::move(filter);
  }

  // --- event loop ---------------------------------------------------------

  // Seconds since construction on the monotonic clock (the queue time base).
  double elapsed() const;

  // Fires due timers, waits for datagrams or the next timer deadline (at
  // most max_wait seconds, clamped to poll_granularity), drains and
  // delivers everything readable, fires newly due timers.
  void poll_once(double max_wait);

  // Drives poll_once until `wall_seconds` have elapsed.
  void run_for(double wall_seconds);

  // Drives the loop until no datagram arrives and no timer fires for
  // `idle_seconds` in a row (or until max_wall elapses; returns false on
  // that timeout).  Lets scenario runners stop as soon as recovery quiesces.
  bool run_until_idle(double idle_seconds, double max_wall);

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t deliveries = 0;       // sink deliveries after fan-out
    std::uint64_t self_suppressed = 0;  // sender's own loopback copy
    std::uint64_t filtered_drops = 0;   // scripted receive-filter drops
    std::uint64_t decode_errors = 0;    // malformed/foreign datagrams
    std::uint64_t send_errors = 0;
  };
  const Stats& stats() const { return stats_; }
  std::uint16_t port() const { return port_; }

 private:
  struct GroupState {
    std::vector<net::NodeId> members;  // locally joined endpoints, sorted
    bool membership_acquired = false;  // IP_ADD_MEMBERSHIP held
  };

  void check_thread() const;
  void acquire_membership(net::GroupId group, GroupState& state);
  void release_membership(net::GroupId group, GroupState& state);
  void deliver(const std::uint8_t* data, std::size_t len);
  void drain_socket();

  UdpOptions options_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint32_t interface_ip_ = 0;  // network byte order
  std::chrono::steady_clock::time_point epoch_;
  std::thread::id owner_ = std::this_thread::get_id();

  sim::EventQueue queue_;
  std::unordered_map<net::NodeId, net::PacketSink*> sinks_;
  std::unordered_map<net::GroupId, GroupState> groups_;
  ReceiveFilter filter_;
  std::vector<std::uint8_t> recv_buf_;
  std::vector<std::uint8_t> send_buf_;
  std::vector<net::NodeId> fanout_scratch_;
  Stats stats_;
};

}  // namespace srm::transport
