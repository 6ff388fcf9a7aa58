#include "transport/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "srm/messages.h"

namespace srm::transport {

namespace {

constexpr std::size_t kRecvBufBytes = 65536;

std::uint16_t derive_port() {
  // Stable within a process (co-located transports share the bus), disjoint
  // across concurrent jobs on the same host.
  return static_cast<std::uint16_t>(21000 + (::getpid() % 20000));
}

sockaddr_in group_sockaddr(net::GroupId group, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Administratively scoped block 239.255/16; the low 16 bits of the group
  // id pick the host part.
  const std::uint32_t host = (239u << 24) | (255u << 16) | (group & 0xFFFFu);
  addr.sin_addr.s_addr = htonl(host);
  return addr;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError("UdpTransport: " + what + ": " +
                       std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction: validate, then acquire
// ---------------------------------------------------------------------------

UdpTransport::UdpTransport(UdpOptions options)
    : options_(std::move(options)), recv_buf_(kRecvBufBytes) {
  // -- validate (cheap checks before any resource is touched) --------------
  if (options_.poll_granularity <= 0.0) {
    throw TransportError("UdpTransport: poll_granularity must be positive");
  }
  in_addr iface{};
  if (::inet_pton(AF_INET, options_.interface_address.c_str(), &iface) != 1) {
    throw TransportError("UdpTransport: bad interface address '" +
                         options_.interface_address + "'");
  }
  const std::uint16_t port = options_.port != 0 ? options_.port : derive_port();

  // -- acquire (socket, then every socket option, then the binding; any
  //    failure closes the fd and leaves the object unconstructed) ----------
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw_errno("socket");
  try {
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
      throw_errno("SO_REUSEADDR");
    }
#ifdef SO_REUSEPORT
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
      throw_errno("SO_REUSEPORT");
    }
#endif
    sockaddr_in bind_addr{};
    bind_addr.sin_family = AF_INET;
    bind_addr.sin_port = htons(port);
    bind_addr.sin_addr.s_addr = htonl(INADDR_ANY);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&bind_addr),
               sizeof bind_addr) < 0) {
      throw_errno("bind");
    }
    if (::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof iface) <
        0) {
      throw_errno("IP_MULTICAST_IF");
    }
    const unsigned char loop = 1;
    if (::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop) <
        0) {
      throw_errno("IP_MULTICAST_LOOP");
    }
    const unsigned char ttl = 1;  // never leaves the host/LAN
    if (::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof ttl) < 0) {
      throw_errno("IP_MULTICAST_TTL");
    }
    const int fl = ::fcntl(fd, F_GETFL, 0);
    if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) {
      throw_errno("O_NONBLOCK");
    }
  } catch (...) {
    ::close(fd);
    throw;
  }

  // -- commit ---------------------------------------------------------------
  fd_ = fd;
  port_ = port;
  interface_ip_ = iface.s_addr;
  epoch_ = std::chrono::steady_clock::now();
}

UdpTransport::~UdpTransport() {
  // Teardown in reverse order of acquisition: memberships, then the socket.
  for (auto& [group, state] : groups_) {
    if (state.membership_acquired) release_membership(group, state);
  }
  if (fd_ >= 0) ::close(fd_);
}

bool UdpTransport::available() {
  // One real round-trip proves the whole path: socket setup, membership on
  // the loopback interface, kernel loopback of a multicast datagram, and
  // decode.  Cached: the answer cannot change within a process.
  static const bool ok = [] {
    struct Probe final : net::PacketSink {
      bool got = false;
      void on_receive(const net::Packet&, const net::DeliveryInfo&) override {
        got = true;
      }
    };
    try {
      UdpOptions options;
      options.port = static_cast<std::uint16_t>(20000 + (::getpid() % 999));
      UdpTransport t(options);
      Probe sender, receiver;
      t.attach(0, &sender);
      t.attach(1, &receiver);
      t.join(65534, 0);
      t.join(65534, 1);
      net::Packet packet;
      packet.group = 65534;
      packet.payload = std::make_shared<DataMessage>(
          DataName{0, PageId{0, 0}, 0}, std::make_shared<Payload>());
      t.multicast(0, std::move(packet));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
      while (!receiver.got && std::chrono::steady_clock::now() < deadline) {
        t.poll_once(0.05);
      }
      return receiver.got;
    } catch (const TransportError&) {
      return false;
    }
  }();
  return ok;
}

// ---------------------------------------------------------------------------
// Endpoints and groups
// ---------------------------------------------------------------------------

void UdpTransport::attach(net::NodeId node, net::PacketSink* sink) {
  if (sink == nullptr) {
    throw TransportError("UdpTransport: attach with null sink");
  }
  sinks_[node] = sink;
}

void UdpTransport::detach(net::NodeId node) { sinks_.erase(node); }

void UdpTransport::join(net::GroupId group, net::NodeId node) {
  GroupState& state = groups_[group];
  if (!state.membership_acquired) acquire_membership(group, state);
  const auto it =
      std::lower_bound(state.members.begin(), state.members.end(), node);
  if (it == state.members.end() || *it != node) state.members.insert(it, node);
}

void UdpTransport::leave(net::GroupId group, net::NodeId node) {
  const auto git = groups_.find(group);
  if (git == groups_.end()) return;
  GroupState& state = git->second;
  const auto it =
      std::lower_bound(state.members.begin(), state.members.end(), node);
  if (it != state.members.end() && *it == node) state.members.erase(it);
  if (state.members.empty()) {
    if (state.membership_acquired) release_membership(group, state);
    groups_.erase(git);
  }
}

void UdpTransport::acquire_membership(net::GroupId group, GroupState& state) {
  ip_mreq mreq{};
  mreq.imr_multiaddr = group_sockaddr(group, port_).sin_addr;
  mreq.imr_interface.s_addr = interface_ip_;
  if (::setsockopt(fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) <
      0) {
    throw_errno("IP_ADD_MEMBERSHIP (multicast unavailable on " +
                options_.interface_address + ")");
  }
  state.membership_acquired = true;
}

void UdpTransport::release_membership(net::GroupId group, GroupState& state) {
  ip_mreq mreq{};
  mreq.imr_multiaddr = group_sockaddr(group, port_).sin_addr;
  mreq.imr_interface.s_addr = interface_ip_;
  ::setsockopt(fd_, IPPROTO_IP, IP_DROP_MEMBERSHIP, &mreq, sizeof mreq);
  state.membership_acquired = false;
}

// ---------------------------------------------------------------------------
// Send / receive
// ---------------------------------------------------------------------------

void UdpTransport::multicast(net::NodeId from, net::Packet packet) {
  packet.source = from;
  if (!encode_frame(packet, send_buf_)) {
    ++stats_.send_errors;
    return;
  }
  const sockaddr_in dst = group_sockaddr(packet.group, port_);
  const ssize_t n =
      ::sendto(fd_, send_buf_.data(), send_buf_.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
  if (n < 0 || static_cast<std::size_t>(n) != send_buf_.size()) {
    ++stats_.send_errors;
    return;
  }
  ++stats_.frames_sent;
}

double UdpTransport::try_distance(net::NodeId, net::NodeId) {
  return std::numeric_limits<double>::infinity();
}

void UdpTransport::deliver(const std::uint8_t* data, std::size_t len) {
  net::Packet packet;
  if (!decode_frame(data, len, pools_, packet)) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.frames_received;
  const auto git = groups_.find(packet.group);
  if (git == groups_.end()) return;  // stale membership (late datagram)
  // One hop from the sender: the loopback fabric is a star.
  net::DeliveryInfo info;
  info.path_delay = 0.0;
  info.hops = 1;
  info.remaining_ttl = std::max(packet.ttl - 1, 0);
  // Fan out over a scratch copy: a sink may join/leave/detach from inside
  // on_receive (agents stop, workloads churn members).
  fanout_scratch_ = git->second.members;
  for (const net::NodeId node : fanout_scratch_) {
    if (node == packet.source) {
      ++stats_.self_suppressed;
      continue;
    }
    const auto sit = sinks_.find(node);
    if (sit == sinks_.end()) continue;
    info.receiver = node;
    if (filter_ && filter_(packet, info)) {
      ++stats_.filtered_drops;
      continue;
    }
    ++stats_.deliveries;
    sit->second->on_receive(packet, info);
  }
}

void UdpTransport::drain_socket() {
  while (true) {
    const ssize_t n = ::recv(fd_, recv_buf_.data(), recv_buf_.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient socket error; keep the loop alive
    }
    deliver(recv_buf_.data(), static_cast<std::size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

double UdpTransport::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void UdpTransport::poll_once(double max_wait) {
  // Fire everything already due; run_until also advances now() so newly
  // scheduled relative timers are anchored at wall time.
  queue_.run_until(elapsed());

  double wait = std::clamp(max_wait, 0.0, options_.poll_granularity);
  const double next = queue_.next_event_time();
  if (next < std::numeric_limits<double>::infinity()) {
    wait = std::clamp(next - elapsed(), 0.0, wait);
  }
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int timeout_ms =
      static_cast<int>(std::ceil(wait * 1000.0));
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc > 0 && (pfd.revents & POLLIN) != 0) drain_socket();
  queue_.run_until(elapsed());
}

void UdpTransport::run_for(double wall_seconds) {
  const auto deadline =
      epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(elapsed() + wall_seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    poll_once(options_.poll_granularity);
  }
  queue_.run_until(elapsed());
}

bool UdpTransport::run_until_idle(double idle_seconds, double max_wall) {
  const double start = elapsed();
  double last_activity = start;
  Stats before = stats_;
  std::size_t events_before = queue_.pending_events();
  while (elapsed() - start < max_wall) {
    const double next = queue_.next_event_time();
    poll_once(options_.poll_granularity);
    const bool socket_activity =
        stats_.frames_received != before.frames_received;
    const bool timer_activity =
        next <= elapsed() || queue_.pending_events() != events_before;
    if (socket_activity || timer_activity) {
      last_activity = elapsed();
      before = stats_;
      events_before = queue_.pending_events();
    } else if (elapsed() - last_activity >= idle_seconds) {
      return true;
    }
  }
  return false;
}

}  // namespace srm::transport
