#include "srm/messages.h"

#include <gtest/gtest.h>

#include <optional>
#include <type_traits>
#include <vector>

#include "srm/baseline.h"

namespace srm {
namespace {

TEST(MessagesTest, DataDescribeAndSize) {
  auto payload = std::make_shared<const Payload>(Payload(100, 0x42));
  DataMessage m(DataName{3, PageId{3, 1}, 7}, payload);
  EXPECT_EQ(m.describe(), "DATA 3:3/p1:7");
  EXPECT_EQ(m.size_bytes(), 132u);  // 32 header + 100 payload
  EXPECT_EQ(m.payload(), payload);
}

TEST(MessagesTest, DataWithNullPayload) {
  DataMessage m(DataName{1, PageId{1, 0}, 0}, nullptr);
  EXPECT_EQ(m.size_bytes(), 32u);
}

TEST(MessagesTest, RequestCarriesDistanceAndTtl) {
  RequestMessage m(DataName{2, PageId{2, 0}, 9}, /*requestor=*/5,
                   /*dist=*/12.5, /*ttl=*/31);
  EXPECT_EQ(m.requestor(), 5u);
  EXPECT_DOUBLE_EQ(m.requestor_dist_to_source(), 12.5);
  EXPECT_EQ(m.initial_ttl(), 31);
  EXPECT_NE(m.describe().find("REQUEST"), std::string::npos);
  EXPECT_NE(m.describe().find("by 5"), std::string::npos);
}

TEST(MessagesTest, RepairCarriesTwoStepFields) {
  auto payload = std::make_shared<const Payload>(Payload{1});
  RepairMessage m(DataName{1, PageId{1, 0}, 3}, payload, /*responder=*/8,
                  /*first_requestor=*/4, /*dist=*/2.0, /*ttl=*/6,
                  /*local_step_one=*/true);
  EXPECT_EQ(m.responder(), 8u);
  EXPECT_EQ(m.first_requestor(), 4u);
  EXPECT_TRUE(m.local_step_one());
  EXPECT_EQ(m.initial_ttl(), 6);
  EXPECT_DOUBLE_EQ(m.responder_dist_to_requestor(), 2.0);
}

TEST(MessagesTest, SessionStateAndEchoes) {
  SessionMessage::StateReport state;
  state[StreamKey{1, PageId{1, 0}}] = 42;
  SessionMessage::Echoes echoes;
  echoes[7] = SessionMessage::Echo{10.0, 3.0};
  SessionMessage m(/*sender=*/9, /*timestamp=*/123.0, state, echoes);
  EXPECT_EQ(m.sender(), 9u);
  EXPECT_DOUBLE_EQ(m.sender_timestamp(), 123.0);
  EXPECT_EQ(m.state().at(StreamKey{1, PageId{1, 0}}), 42u);
  EXPECT_DOUBLE_EQ(m.echoes().at(7).peer_timestamp, 10.0);
  EXPECT_DOUBLE_EQ(m.echoes().at(7).hold_time, 3.0);
}

TEST(MessagesTest, SessionSizeGrowsWithContent) {
  SessionMessage empty(1, 0.0, {}, {});
  SessionMessage::StateReport state;
  for (SourceId s = 0; s < 10; ++s) state[StreamKey{s, PageId{s, 0}}] = s;
  SessionMessage full(1, 0.0, state, {});
  EXPECT_GT(full.size_bytes(), empty.size_bytes());
}

TEST(MessagesTest, PolymorphicDispatchViaBasePointer) {
  // The network stores MessagePtr (shared_ptr<const Message>); receivers
  // classify a payload by its kind.  Every class reports its own kind, a
  // payload of any other class reports 0, and message_cast<T> finds exactly
  // the payloads dynamic_cast finds: each payload of T's kind, else null.
  struct Foreign final : net::Message {
    std::string describe() const override { return "FOREIGN"; }
  };
  const std::vector<net::MessagePtr> msgs = {
      std::make_shared<DataMessage>(DataName{}, nullptr),
      std::make_shared<RequestMessage>(DataName{}, 0, 0.0, 1),
      std::make_shared<RepairMessage>(DataName{}, nullptr, 0, 0, 0.0, 1),
      std::make_shared<SessionMessage>(0, 0.0, SessionMessage::StateReport{},
                                       SessionMessage::Echoes{}),
      std::make_shared<PageRequestMessage>(0, std::nullopt),
      std::make_shared<PageReplyMessage>(0, std::nullopt,
                                         SessionMessage::StateReport{},
                                         std::vector<PageId>{}),
      std::make_shared<baseline::NackMessage>(DataName{}, 0),
      std::make_shared<Foreign>(),
  };
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(msgs[i]->trace_kind(), i + 1) << msgs[i]->describe();
  }
  EXPECT_EQ(msgs[6]->trace_kind(), baseline::NackMessage::kKind);
  EXPECT_EQ(msgs[7]->trace_kind(), 0u);

  const auto matches_rtti = [&msgs](auto* tag, std::size_t own) {
    using T = std::remove_pointer_t<decltype(tag)>;
    EXPECT_EQ(T::kKind, own + 1);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const T* got = message_cast<T>(msgs[i].get());
      EXPECT_EQ(got, dynamic_cast<const T*>(msgs[i].get())) << i;
      EXPECT_EQ(got != nullptr, i == own) << i;
    }
    EXPECT_EQ(message_cast<T>(nullptr), nullptr);
  };
  matches_rtti(static_cast<DataMessage*>(nullptr), 0);
  matches_rtti(static_cast<RequestMessage*>(nullptr), 1);
  matches_rtti(static_cast<RepairMessage*>(nullptr), 2);
  matches_rtti(static_cast<SessionMessage*>(nullptr), 3);
  matches_rtti(static_cast<PageRequestMessage*>(nullptr), 4);
  matches_rtti(static_cast<PageReplyMessage*>(nullptr), 5);
  matches_rtti(static_cast<baseline::NackMessage*>(nullptr), 6);
}

}  // namespace
}  // namespace srm
