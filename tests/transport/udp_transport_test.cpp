// UdpTransport: real UDP multicast on loopback.  Every test gates on
// UdpTransport::available() so environments without multicast support skip
// instead of failing.
#include "transport/udp_transport.h"

#include <gtest/gtest.h>

#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/packet.h"
#include "srm/messages.h"

namespace srm::transport {
namespace {

#define REQUIRE_UDP()                                             \
  do {                                                            \
    if (!UdpTransport::available())                               \
      GTEST_SKIP() << "loopback multicast unavailable";           \
  } while (0)

struct Capture final : net::PacketSink {
  std::vector<net::Packet> packets;
  std::vector<net::DeliveryInfo> infos;
  void on_receive(const net::Packet& packet,
                  const net::DeliveryInfo& info) override {
    packets.push_back(packet);
    infos.push_back(info);
  }
};

net::Packet make_data(SeqNo seq) {
  net::Packet p;
  p.group = 1;
  p.payload = std::make_shared<DataMessage>(
      DataName{/*source=*/0, PageId{0, 1}, seq},
      std::make_shared<const Payload>(Payload{9, 8, 7}));
  return p;
}

// Scratch port away from the suite default so concurrent tests don't cross.
UdpOptions test_options(std::uint16_t port_offset) {
  UdpOptions options;
  options.port = static_cast<std::uint16_t>(22000 + port_offset);
  return options;
}

TEST(UdpTransport, RoundTripsBetweenEndpointsOnOneSocket) {
  REQUIRE_UDP();
  UdpTransport transport(test_options(1));
  Capture a, b;
  transport.attach(0, &a);
  transport.attach(1, &b);
  transport.join(1, 0);
  transport.join(1, 1);

  transport.multicast(0, make_data(5));
  ASSERT_TRUE(transport.run_until_idle(0.05, 2.0));

  // The sender's own loopback copy is suppressed; the peer sees the frame.
  EXPECT_TRUE(a.packets.empty());
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(b.packets[0].source, 0u);
  EXPECT_EQ(b.infos[0].receiver, 1u);
  const auto& msg = static_cast<const DataMessage&>(*b.packets[0].payload);
  EXPECT_EQ(msg.name().seq, 5u);
  EXPECT_GE(transport.stats().frames_sent, 1u);
  EXPECT_GE(transport.stats().self_suppressed, 1u);
}

TEST(UdpTransport, TwoTransportsInterop) {
  REQUIRE_UDP();
  UdpTransport t1(test_options(2));
  UdpTransport t2(test_options(2));  // same port: the two sockets peer
  Capture sender_side, sink;
  t1.attach(0, &sender_side);
  t1.join(1, 0);
  t2.attach(1, &sink);
  t2.join(1, 1);

  t1.multicast(0, make_data(3));
  bool seen = false;
  for (int i = 0; i < 200 && !seen; ++i) {
    t1.poll_once(0.005);
    t2.poll_once(0.005);
    seen = !sink.packets.empty();
  }
  ASSERT_TRUE(seen);
  EXPECT_EQ(sink.infos[0].receiver, 1u);
}

TEST(UdpTransport, GroupScopingFiltersForeignGroups) {
  REQUIRE_UDP();
  UdpTransport transport(test_options(3));
  Capture a, b;
  transport.attach(0, &a);
  transport.attach(1, &b);
  transport.join(1, 0);
  transport.join(2, 1);  // b listens on a different group

  auto packet = make_data(0);
  packet.group = 1;
  transport.multicast(0, packet);
  transport.run_until_idle(0.05, 1.0);
  EXPECT_TRUE(b.packets.empty());
}

TEST(UdpTransport, ReceiveFilterAndTimerService) {
  REQUIRE_UDP();
  UdpTransport transport(test_options(4));
  Capture a, b;
  transport.attach(0, &a);
  transport.attach(1, &b);
  transport.join(1, 0);
  transport.join(1, 1);
  transport.set_receive_filter(
      [](const net::Packet& packet, const net::DeliveryInfo& info) {
        const auto& msg = static_cast<const DataMessage&>(*packet.payload);
        return info.receiver == 1 && msg.name().seq == 0;
      });

  int fired = 0;
  transport.queue().schedule_at(0.05, [&] { ++fired; });
  transport.multicast(0, make_data(0));  // filtered at member 1
  transport.multicast(0, make_data(1));  // delivered
  transport.run_for(0.2);

  EXPECT_EQ(fired, 1);  // monotonic-clock timer fired
  ASSERT_EQ(b.packets.size(), 1u);
  const auto& msg = static_cast<const DataMessage&>(*b.packets[0].payload);
  EXPECT_EQ(msg.name().seq, 1u);
  EXPECT_EQ(transport.stats().filtered_drops, 1u);
  EXPECT_GE(transport.elapsed(), 0.2);
}

TEST(UdpTransport, NoOracle) {
  REQUIRE_UDP();
  UdpTransport transport(test_options(5));
  EXPECT_TRUE(transport.try_distance(0, 1) ==
              std::numeric_limits<double>::infinity());
  EXPECT_EQ(transport.topology_version(), 0u);
}

TEST(UdpTransportTest, RefusesASecondThread) {
  REQUIRE_UDP();
  UdpTransport transport(test_options(7));
  std::exception_ptr error;
  std::thread other([&] {
    try {
      transport.run_for(0.01);
    } catch (...) {
      error = std::current_exception();
    }
  });
  other.join();
  ASSERT_TRUE(error) << "run_for ran on a second thread";
  EXPECT_THROW(std::rethrow_exception(error), std::logic_error);
  transport.run_for(0.01);  // the constructing thread still drives it
}

TEST(UdpTransport, RejectsBadOptions) {
  UdpOptions bad;
  bad.interface_address = "not-an-ip";
  EXPECT_THROW(UdpTransport{bad}, TransportError);
  UdpOptions zero = test_options(6);
  zero.poll_granularity = 0.0;
  EXPECT_THROW(UdpTransport{zero}, TransportError);
}

}  // namespace
}  // namespace srm::transport
