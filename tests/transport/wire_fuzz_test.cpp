// Seeded mutation fuzzer for the wire codec (src/transport/wire.h).  Frames
// of all six SRM message kinds are mutated — truncated, bit-flipped,
// spliced with another frame, a count field filled with 0xFF, a body byte
// overwritten — and every mutant must either be rejected or decode to a
// packet whose encoding is a fixed point: encode, decode and encode again
// yields the same bytes.  The socket is a public input, so the decoder must
// survive anything; under the sanitizer build this also checks that no
// mutant reads out of bounds or trips undefined behaviour.
#include "transport/wire.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "harness/session.h"
#include "net/packet.h"
#include "srm/messages.h"
#include "srm/names.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace srm::transport {
namespace {

constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kNameBytes = 20;
constexpr std::size_t kStateEntryBytes = 20;
constexpr std::size_t kEchoBytes = 20;

struct Seed {
  std::vector<std::uint8_t> frame;
  std::vector<std::size_t> count_offsets;  // u32 count/length fields
};

net::Packet packet_of(net::MessagePtr payload, int ttl) {
  net::Packet p;
  p.source = 7;
  p.group = 1;
  p.ttl = ttl;
  p.payload = std::move(payload);
  return p;
}

Seed make_seed(net::MessagePtr payload, std::vector<std::size_t> counts) {
  Seed s;
  EXPECT_TRUE(encode_frame(packet_of(std::move(payload), 31), s.frame));
  s.count_offsets = std::move(counts);
  return s;
}

// The corpus: every kind, with empty and populated variable-length parts,
// and both PageRequestMessage forms.  Count offsets follow the layout in
// wire.cpp.
std::vector<Seed> corpus() {
  const DataName name{3, PageId{3, 2}, 41};
  const auto bytes = std::make_shared<const Payload>(Payload{1, 2, 3, 0xFF});
  SessionMessage::StateReport state;
  state.insert_or_assign(StreamKey{1, PageId{1, 1}}, SeqNo{17});
  state.insert_or_assign(StreamKey{2, PageId{2, 1}}, SeqNo{3});
  SessionMessage::Echoes echoes;
  echoes.insert_or_assign(SourceId{2}, SessionMessage::Echo{1.5, 0.25});
  echoes.insert_or_assign(SourceId{9}, SessionMessage::Echo{0.0, 4.0});
  const SessionMessage::AreaDigests digests{{1, 4, 9}, {2, 0, 0}};

  constexpr std::size_t kDataLength = kHeaderBytes + kNameBytes;
  constexpr std::size_t kRepairLength = kHeaderBytes + kNameBytes + 21;
  constexpr std::size_t kSessionState = kHeaderBytes + 12;
  constexpr std::size_t kReplyState = kHeaderBytes + 13;

  std::vector<Seed> seeds;
  seeds.push_back(make_seed(std::make_shared<DataMessage>(name, bytes),
                            {kDataLength}));
  seeds.push_back(make_seed(std::make_shared<DataMessage>(name, nullptr),
                            {kDataLength}));
  seeds.push_back(
      make_seed(std::make_shared<RequestMessage>(name, 4, 0.125, 31), {}));
  seeds.push_back(make_seed(std::make_shared<RepairMessage>(
                                name, bytes, 6, 4, 0.5, 15, true),
                            {kRepairLength}));
  seeds.push_back(make_seed(
      std::make_shared<SessionMessage>(5, 2.75, state, echoes, digests),
      {kSessionState, kSessionState + 4 + 2 * kStateEntryBytes,
       kSessionState + 8 + 2 * kStateEntryBytes + 2 * kEchoBytes}));
  seeds.push_back(make_seed(
      std::make_shared<SessionMessage>(5, 0.0, SessionMessage::StateReport{},
                                       SessionMessage::Echoes{}),
      {kSessionState, kSessionState + 4, kSessionState + 8}));
  seeds.push_back(make_seed(
      std::make_shared<PageRequestMessage>(8, std::nullopt), {}));
  seeds.push_back(make_seed(
      std::make_shared<PageRequestMessage>(8, PageId{3, 4}), {}));
  seeds.push_back(make_seed(
      std::make_shared<PageReplyMessage>(
          2, PageId{1, 2}, state, std::vector<PageId>{{1, 1}, {1, 2}}),
      {kReplyState, kReplyState + 4 + 2 * kStateEntryBytes}));
  seeds.push_back(make_seed(
      std::make_shared<PageReplyMessage>(2, std::nullopt,
                                         SessionMessage::StateReport{},
                                         std::vector<PageId>{}),
      {kReplyState, kReplyState + 4}));
  return seeds;
}

// One random mutation of `frame`, in place.  `seed` supplies the count
// offsets; `other` is the splice partner.
void mutate(std::vector<std::uint8_t>& frame, const Seed& seed,
            const Seed& other, util::Rng& rng) {
  switch (rng.index(5)) {
    case 0:  // truncate
      frame.resize(rng.index(frame.size() + 1));
      break;
    case 1:  // flip a bit
      if (!frame.empty()) {
        frame[rng.index(frame.size())] ^=
            static_cast<std::uint8_t>(1u << rng.index(8));
      }
      break;
    case 2: {  // splice: a prefix of this frame, a suffix of the other
      const std::size_t cut = rng.index(frame.size() + 1);
      const std::size_t from = rng.index(other.frame.size() + 1);
      frame.resize(cut);
      frame.insert(frame.end(), other.frame.begin() + from, other.frame.end());
      break;
    }
    case 3:  // fill a count field with 0xFF
      if (!seed.count_offsets.empty()) {
        const std::size_t at =
            seed.count_offsets[rng.index(seed.count_offsets.size())];
        for (std::size_t i = at; i < at + 4 && i < frame.size(); ++i) {
          frame[i] = 0xFF;
        }
      }
      break;
    default:  // overwrite a body byte
      if (frame.size() > kHeaderBytes) {
        frame[kHeaderBytes + rng.index(frame.size() - kHeaderBytes)] =
            static_cast<std::uint8_t>(rng.index(256));
      }
      break;
  }
}

TEST(WireFuzz, MutantsAreRejectedOrReencodeToAFixedPoint) {
  const std::vector<Seed> seeds = corpus();
  for (const Seed& s : seeds) ASSERT_FALSE(s.frame.empty());

  constexpr int kMutants = 400000;
  util::Rng rng(0x5EED);
  std::vector<std::uint8_t> mutant, first, second;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const Seed& seed = seeds[rng.index(seeds.size())];
    mutant = seed.frame;
    // One to three stacked mutations.
    for (std::size_t m = 1 + rng.index(3); m > 0; --m) {
      mutate(mutant, seed, seeds[rng.index(seeds.size())], rng);
    }

    net::Packet decoded;
    if (!decode_frame(mutant.data(), mutant.size(), decoded)) {
      ASSERT_EQ(decoded.payload, nullptr) << "mutant " << i;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(encode_frame(decoded, first)) << "mutant " << i;
    net::Packet again;
    ASSERT_TRUE(decode_frame(first.data(), first.size(), again))
        << "mutant " << i;
    ASSERT_TRUE(encode_frame(again, second)) << "mutant " << i;
    ASSERT_EQ(first, second) << "mutant " << i;
  }
  // Both outcomes must be exercised, or the fuzzer tests nothing.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_LT(accepted, kMutants);
}

// A frame that decodes reaches the agent, so the agent bounds what one frame
// can reveal.  A name or state entry far past what the member knows of its
// stream would otherwise be a loss, with a request timer, for every seq up
// to it; at UINT64_MAX the scan would never end.
TEST(WireFuzz, FarSequenceNumbersAreIgnoredAndCounted) {
  constexpr SeqNo kBound = SrmAgent::kMaxSeqReveal;
  const PageId page{0, 0};
  const auto bytes = std::make_shared<const Payload>(Payload{1});
  // 2^18 first: an unbounded agent fails there rather than looping forever.
  for (const SeqNo seq : {SeqNo{1} << 18, std::numeric_limits<SeqNo>::max()}) {
    const DataName name{0, page, seq};
    SessionMessage::StateReport state;
    state.insert_or_assign(stream_of(name), seq);
    const std::vector<net::MessagePtr> messages = {
        std::make_shared<DataMessage>(name, bytes),
        std::make_shared<RequestMessage>(name, 0, 1.0, net::kMaxTtl),
        std::make_shared<RepairMessage>(name, bytes, 0, 0, 1.0, net::kMaxTtl,
                                        false),
        std::make_shared<SessionMessage>(0, 0.0, state,
                                         SessionMessage::Echoes{}),
        std::make_shared<PageReplyMessage>(0, page, state,
                                           std::vector<PageId>{}),
    };
    for (const net::MessagePtr& message : messages) {
      std::vector<std::uint8_t> frame;
      ASSERT_TRUE(encode_frame(packet_of(message, net::kMaxTtl), frame));
      net::Packet packet;
      ASSERT_TRUE(decode_frame(frame.data(), frame.size(), packet));

      harness::SimSession s(topo::make_chain(2),
                            std::vector<net::NodeId>{0, 1},
                            {SrmConfig{}, 1, 1});
      SrmAgent& agent = s.agent_at(1);
      agent.on_receive(packet, net::DeliveryInfo{1, 1.0, 1, 0});
      ASSERT_LE(agent.metrics().losses_detected, kBound)
          << message->describe() << " at seq " << seq;
      ASSERT_LE(s.queue().pending_events(), kBound)
          << message->describe() << " at seq " << seq;
      EXPECT_EQ(agent.metrics().far_names_ignored, 1u)
          << message->describe() << " at seq " << seq;
      EXPECT_FALSE(agent.has_data(name));
    }
  }
}

}  // namespace
}  // namespace srm::transport
