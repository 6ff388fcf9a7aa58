// Wire codec round-trip and defensive-decode tests for the UDP backend's
// frame format (src/transport/wire.h).
#include "transport/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "srm/messages.h"
#include "srm/names.h"

namespace srm::transport {
namespace {

net::Packet base_packet(net::MessagePtr payload) {
  net::Packet p;
  p.source = 7;
  p.group = 1;
  p.ttl = 63;
  p.scope = net::Scope::kGlobal;
  p.payload = std::move(payload);
  return p;
}

// Encodes, decodes, and returns the decoded packet (asserting success).
net::Packet round_trip(const net::Packet& in) {
  std::vector<std::uint8_t> frame;
  EXPECT_TRUE(encode_frame(in, frame));
  net::Packet out;
  EXPECT_TRUE(decode_frame(frame.data(), frame.size(), out));
  EXPECT_EQ(out.source, in.source);
  EXPECT_EQ(out.group, in.group);
  EXPECT_EQ(out.ttl, in.ttl);
  EXPECT_EQ(out.scope, in.scope);
  EXPECT_NE(out.payload, nullptr);
  EXPECT_EQ(out.payload->trace_kind(), in.payload->trace_kind());
  return out;
}

TEST(WireCodec, RoundTripsData) {
  const DataName name{/*source=*/3, PageId{3, 2}, /*seq=*/41};
  auto payload = std::make_shared<const Payload>(Payload{1, 2, 3, 0xFF});
  const auto in = base_packet(std::make_shared<DataMessage>(name, payload));
  const auto out = round_trip(in);
  const auto& msg = static_cast<const DataMessage&>(*out.payload);
  EXPECT_EQ(msg.name(), name);
  ASSERT_NE(msg.payload(), nullptr);
  EXPECT_EQ(*msg.payload(), *payload);
}

TEST(WireCodec, RoundTripsDataWithoutPayloadBytes) {
  const DataName name{3, PageId{3, 2}, 0};
  const auto in =
      base_packet(std::make_shared<DataMessage>(name, nullptr));
  const auto out = round_trip(in);
  const auto& msg = static_cast<const DataMessage&>(*out.payload);
  EXPECT_EQ(msg.name(), name);
  ASSERT_NE(msg.payload(), nullptr);  // decoder materializes an empty payload
  EXPECT_TRUE(msg.payload()->empty());
}

TEST(WireCodec, RoundTripsRequest) {
  const DataName name{9, PageId{9, 1}, 5};
  const auto in = base_packet(
      std::make_shared<RequestMessage>(name, /*requestor=*/4, 0.125, 31));
  const auto out = round_trip(in);
  const auto& msg = static_cast<const RequestMessage&>(*out.payload);
  EXPECT_EQ(msg.name(), name);
  EXPECT_EQ(msg.requestor(), 4u);
  EXPECT_DOUBLE_EQ(msg.requestor_dist_to_source(), 0.125);
  EXPECT_EQ(msg.initial_ttl(), 31);
}

TEST(WireCodec, RoundTripsRepair) {
  const DataName name{2, PageId{2, 7}, 12};
  auto payload = std::make_shared<const Payload>(Payload(100, 0xAB));
  const auto in = base_packet(std::make_shared<RepairMessage>(
      name, payload, /*responder=*/6, /*first_requestor=*/4, 0.5, 15,
      /*local_step_one=*/true));
  const auto out = round_trip(in);
  const auto& msg = static_cast<const RepairMessage&>(*out.payload);
  EXPECT_EQ(msg.name(), name);
  EXPECT_EQ(msg.responder(), 6u);
  EXPECT_EQ(msg.first_requestor(), 4u);
  EXPECT_DOUBLE_EQ(msg.responder_dist_to_requestor(), 0.5);
  EXPECT_EQ(msg.initial_ttl(), 15);
  EXPECT_TRUE(msg.local_step_one());
  ASSERT_NE(msg.payload(), nullptr);
  EXPECT_EQ(*msg.payload(), *payload);
}

TEST(WireCodec, RoundTripsSession) {
  SessionMessage::StateReport state;
  state.insert_or_assign(StreamKey{1, PageId{1, 1}}, SeqNo{17});
  state.insert_or_assign(StreamKey{2, PageId{2, 1}}, SeqNo{3});
  SessionMessage::Echoes echoes;
  echoes.insert_or_assign(SourceId{2}, SessionMessage::Echo{1.5, 0.25});
  SessionMessage::AreaDigests digests{{/*area=*/1, /*live=*/4, /*max_seq=*/9}};
  const auto in = base_packet(std::make_shared<SessionMessage>(
      /*sender=*/5, /*timestamp=*/2.75, state, echoes, digests));
  const auto out = round_trip(in);
  const auto& msg = static_cast<const SessionMessage&>(*out.payload);
  EXPECT_EQ(msg.sender(), 5u);
  EXPECT_DOUBLE_EQ(msg.sender_timestamp(), 2.75);
  ASSERT_EQ(msg.state().size(), 2u);
  EXPECT_EQ(msg.state().at(StreamKey{1, PageId{1, 1}}), 17u);
  ASSERT_EQ(msg.echoes().size(), 1u);
  EXPECT_EQ(msg.echoes().at(2), (SessionMessage::Echo{1.5, 0.25}));
  ASSERT_EQ(msg.digests().size(), 1u);
  EXPECT_EQ(msg.digests()[0], (SessionMessage::AreaDigest{1, 4, 9}));
}

TEST(WireCodec, RoundTripsPageRequestBothForms) {
  for (const auto& page :
       {std::optional<PageId>{}, std::optional<PageId>{PageId{3, 4}}}) {
    const auto in =
        base_packet(std::make_shared<PageRequestMessage>(/*requestor=*/8, page));
    const auto out = round_trip(in);
    const auto& msg = static_cast<const PageRequestMessage&>(*out.payload);
    EXPECT_EQ(msg.requestor(), 8u);
    EXPECT_EQ(msg.page(), page);
  }
}

TEST(WireCodec, RoundTripsPageReply) {
  SessionMessage::StateReport state;
  state.insert_or_assign(StreamKey{1, PageId{1, 2}}, SeqNo{30});
  std::vector<PageId> pages{{1, 1}, {1, 2}};
  const auto in = base_packet(std::make_shared<PageReplyMessage>(
      /*responder=*/2, PageId{1, 2}, state, pages));
  const auto out = round_trip(in);
  const auto& msg = static_cast<const PageReplyMessage&>(*out.payload);
  EXPECT_EQ(msg.responder(), 2u);
  ASSERT_TRUE(msg.page().has_value());
  EXPECT_EQ(*msg.page(), (PageId{1, 2}));
  EXPECT_EQ(msg.state().at(StreamKey{1, PageId{1, 2}}), 30u);
  EXPECT_EQ(msg.known_pages(), pages);
}

TEST(WireCodec, PreservesScopeAndTtl) {
  auto in = base_packet(std::make_shared<PageRequestMessage>(1, std::nullopt));
  in.scope = net::Scope::kAdmin;
  in.ttl = 2;
  round_trip(in);
}

TEST(WireCodec, RejectsNonSrmPayload) {
  struct Foreign final : net::Message {
    std::string describe() const override { return "foreign"; }
  };
  auto in = base_packet(std::make_shared<Foreign>());
  std::vector<std::uint8_t> frame;
  EXPECT_FALSE(encode_frame(in, frame));
}

TEST(WireCodec, RejectsMalformedFrames) {
  const DataName name{3, PageId{3, 2}, 41};
  auto payload = std::make_shared<const Payload>(Payload{1, 2, 3});
  const auto in = base_packet(std::make_shared<DataMessage>(name, payload));
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_frame(in, frame));

  net::Packet out;
  // Truncation at every prefix length must fail cleanly, never crash.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_frame(frame.data(), len, out)) << len;
  }
  // Trailing garbage is rejected (full-consumption rule).
  auto padded = frame;
  padded.push_back(0);
  EXPECT_FALSE(decode_frame(padded.data(), padded.size(), out));
  // Bad magic / version / kind.
  auto bad = frame;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_frame(bad.data(), bad.size(), out));
  bad = frame;
  bad[4] = 99;  // version
  EXPECT_FALSE(decode_frame(bad.data(), bad.size(), out));
  bad = frame;
  bad[5] = 77;  // kind
  EXPECT_FALSE(decode_frame(bad.data(), bad.size(), out));
}

TEST(WireCodec, RejectsNonFiniteOrNegativeTimes) {
  // Every double on the wire is a distance, a timestamp or a hold time; a
  // hostile one must be rejected at decode, before it can become a timer.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const DataName name{9, PageId{9, 1}, 5};
  const auto session = [](double timestamp, SessionMessage::Echo echo) {
    SessionMessage::Echoes echoes;
    echoes.insert_or_assign(SourceId{2}, echo);
    return std::make_shared<SessionMessage>(
        5, timestamp, SessionMessage::StateReport{}, echoes);
  };
  const std::vector<net::MessagePtr> hostile = {
      std::make_shared<RequestMessage>(name, 4, nan, 31),
      std::make_shared<RequestMessage>(name, 4, -0.5, 31),
      std::make_shared<RepairMessage>(name, nullptr, 6, 4, inf, 15, false),
      session(nan, SessionMessage::Echo{1.5, 0.25}),
      session(-2.0, SessionMessage::Echo{1.5, 0.25}),
      session(2.75, SessionMessage::Echo{inf, 0.25}),
      session(2.75, SessionMessage::Echo{1.5, nan}),
      session(2.75, SessionMessage::Echo{1.5, -1.0}),
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(encode_frame(base_packet(hostile[i]), frame)) << i;
    net::Packet out;
    EXPECT_FALSE(decode_frame(frame.data(), frame.size(), out)) << i;
    EXPECT_EQ(out.payload, nullptr) << i;
  }
  // Zero is a legal time and distance.
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_frame(
      base_packet(session(0.0, SessionMessage::Echo{0.0, 0.0})), frame));
  net::Packet out;
  EXPECT_TRUE(decode_frame(frame.data(), frame.size(), out));
}

TEST(WireCodec, RejectsOversizedCounts) {
  // A SESSION frame whose state count claims more entries than the frame
  // could hold must be rejected before any allocation.
  const auto in = base_packet(std::make_shared<SessionMessage>(
      5, 0.0, SessionMessage::StateReport{}, SessionMessage::Echoes{}));
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_frame(in, frame));
  // state count is the first u32 after sender(u32) + timestamp(f64).
  const std::size_t count_off = 20 + 4 + 8;
  ASSERT_LT(count_off + 4, frame.size() + 4);
  auto bad = frame;
  bad.resize(count_off + 4);
  for (int i = 0; i < 4; ++i) bad[count_off + i] = 0xFF;
  net::Packet out;
  EXPECT_FALSE(decode_frame(bad.data(), bad.size(), out));
}

}  // namespace
}  // namespace srm::transport
