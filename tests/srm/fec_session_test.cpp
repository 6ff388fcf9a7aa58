// FecSession: generation framing, local reconstruction with zero control
// traffic, the loss-adaptive parity budget end to end, parallel-kernel
// trace determinism, and the Gilbert-Elliott burst integration
// (ARCHITECTURE.md §11).
#include "srm/fec/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "fault/checker.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/config.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace srm::fec {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

SrmConfig cfg() {
  SrmConfig c;
  c.timers = TimerParams{2.0, 2.0, 1.0, 1.0};
  c.backoff_factor = 3.0;
  return c;
}

FecConfig fec_cfg(std::size_t generation_size, std::size_t initial_k) {
  FecConfig f;
  f.generation_size = generation_size;
  f.initial_k = initial_k;
  return f;
}

// Drops DataMessages whose seq is in `seqs` on the directed link from->to.
std::shared_ptr<net::ScriptedLinkDrop> drop_seqs(net::NodeId from,
                                                 net::NodeId to,
                                                 std::vector<SeqNo> seqs) {
  const std::size_t max_drops = seqs.size();
  return std::make_shared<net::ScriptedLinkDrop>(
      from, to,
      [seqs = std::move(seqs)](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && std::find(seqs.begin(), seqs.end(),
                                         d->name().seq) != seqs.end();
      },
      max_drops);
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FecFramingTest, DataRoundTrip) {
  const Payload app{9, 8, 7};
  const Payload frame = FecSession::frame_data(/*gen=*/5, /*idx=*/2, app);
  const auto back = FecSession::parse_data(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->gen, 5u);
  EXPECT_EQ(back->idx, 2u);
  EXPECT_EQ(back->payload, app);
  // Empty payload is legal.
  const auto empty = FecSession::parse_data(FecSession::frame_data(0, 0, {}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->payload.empty());
}

TEST(FecFramingTest, ParityRoundTrip) {
  ParityFrame pf;
  pf.scheme = kSchemeGf256;
  pf.j = 1;
  pf.k = 3;
  pf.gen = 42;
  pf.n = 7;
  pf.base_seq = 1234567890123ULL;
  pf.padded_len = 5;
  pf.body = {1, 2, 3, 4, 5};
  const auto back = FecSession::parse_parity(FecSession::frame_parity(pf));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->scheme, pf.scheme);
  EXPECT_EQ(back->j, pf.j);
  EXPECT_EQ(back->k, pf.k);
  EXPECT_EQ(back->gen, pf.gen);
  EXPECT_EQ(back->n, pf.n);
  EXPECT_EQ(back->base_seq, pf.base_seq);
  EXPECT_EQ(back->padded_len, pf.padded_len);
  EXPECT_EQ(back->body, pf.body);
}

TEST(FecFramingTest, RejectsMalformedFrames) {
  EXPECT_FALSE(FecSession::parse_data({}).has_value());
  EXPECT_FALSE(FecSession::parse_data({0xFF, 1, 2}).has_value());
  // Truncated data frame (len field says 4, only 2 bytes follow).
  Payload truncated = FecSession::frame_data(0, 0, {1, 2, 3, 4});
  truncated.resize(truncated.size() - 2);
  EXPECT_FALSE(FecSession::parse_data(truncated).has_value());

  EXPECT_FALSE(FecSession::parse_parity({}).has_value());
  ParityFrame pf;
  pf.k = 2;
  pf.n = 1;
  pf.padded_len = 1;
  pf.body = {0};
  pf.j = 2;  // j >= k
  EXPECT_FALSE(FecSession::parse_parity(FecSession::frame_parity(pf)));
  pf.j = 0;
  pf.k = static_cast<std::uint8_t>(kMaxParity + 1);
  EXPECT_FALSE(FecSession::parse_parity(FecSession::frame_parity(pf)));
  pf.k = 2;
  Payload bad_len = FecSession::frame_parity(pf);
  bad_len.push_back(0);  // body longer than padded_len
  EXPECT_FALSE(FecSession::parse_parity(bad_len).has_value());
}

// ---------------------------------------------------------------------------
// Delivery and reconstruction
// ---------------------------------------------------------------------------

TEST(FecSessionTest, DeliversAppPayloadsAndHidesParity) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 1, 1});
  FecSession tx(s.agent_at(0), fec_cfg(2, 1));
  FecSession rx(s.agent_at(1), fec_cfg(2, 1));
  std::map<SeqNo, Payload> delivered;
  rx.set_data_handler([&](const DataName& n, const Payload& p, bool) {
    delivered[n.seq] = p;
  });
  const PageId page{0, 0};
  for (int i = 0; i < 4; ++i) {
    tx.send(page, {static_cast<std::uint8_t>(10 + i)});
  }
  s.queue().run();
  // Seqs 0,1 data; 2 parity; 3,4 data; 5 parity.
  EXPECT_EQ(tx.stats().parity_sent, 2u);
  EXPECT_EQ(tx.stats().generations_sealed, 2u);
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered.at(0), (Payload{10}));
  EXPECT_EQ(delivered.at(1), (Payload{11}));
  EXPECT_EQ(delivered.at(3), (Payload{12}));
  EXPECT_EQ(delivered.at(4), (Payload{13}));
  EXPECT_EQ(delivered.count(2), 0u);  // parity invisible to the app
}

TEST(FecSessionTest, EmitsParityEveryKthSend) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 1, 1});
  FecSession tx(s.agent_at(0), fec_cfg(3, 1));
  const PageId page{0, 0};
  std::size_t data_seen = 0, parity_seen = 0;
  s.network().set_send_observer([&](net::NodeId, const net::Packet& p) {
    const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
    if (d == nullptr) return;
    if (FecSession::parse_parity(*d->payload())) {
      ++parity_seen;
    } else {
      ++data_seen;
    }
  });
  for (int i = 0; i < 7; ++i) {
    tx.send(page, {static_cast<std::uint8_t>(i)});
  }
  s.queue().run();
  EXPECT_EQ(data_seen, 7u);
  EXPECT_EQ(parity_seen, 2u);  // after sends 3 and 6; send 7 stays unsealed
  EXPECT_EQ(tx.stats().parity_sent, 2u);
}

TEST(FecSessionTest, ForeignPayloadsPassThroughUnframed) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 2, 1});
  FecSession rx(s.agent_at(1), fec_cfg(2, 1));
  std::map<SeqNo, Payload> delivered;
  rx.set_data_handler([&](const DataName& n, const Payload& p, bool) {
    delivered[n.seq] = p;
  });
  // A sender without the FEC wrapper (or harness-seeded traffic).
  s.agent_at(0).send_data(PageId{0, 0}, Payload{0x01, 0x02});
  s.queue().run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered.at(0), (Payload{0x01, 0x02}));
}

TEST(FecSessionTest, XorReconstructionWithZeroControlTraffic) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 3, 1});
  FecSession tx(s.agent_at(0), fec_cfg(2, 1));
  FecSession rx(s.agent_at(1), fec_cfg(2, 1));
  std::map<SeqNo, Payload> delivered;
  rx.set_data_handler([&](const DataName& n, const Payload& p, bool) {
    delivered[n.seq] = p;
  });
  const PageId page{0, 0};
  s.network().set_drop_policy(drop_seqs(0, 1, {1}));
  tx.send(page, {0xA0});
  tx.send(page, {0xA1, 0xA1, 0xA1});  // dropped; longer than its peer
  s.queue().run();
  EXPECT_EQ(rx.stats().reconstructions, 1u);
  ASSERT_EQ(delivered.count(1), 1u);
  EXPECT_EQ(delivered.at(1), (Payload{0xA1, 0xA1, 0xA1}));
  EXPECT_EQ(s.agent_at(1).metrics().requests_sent, 0u);
  EXPECT_EQ(s.agent_at(0).metrics().repairs_sent, 0u);
  EXPECT_EQ(s.agent_at(1).metrics().recoveries, 1u);
  EXPECT_EQ(s.agent_at(1).metrics().fec_reconstructions, 1u);
}

TEST(FecSessionTest, ReconstructedDataAnswersOthersRequests) {
  // Member 1 reconstructs the loss from parity; member 2, which missed both
  // the data AND the parity, recovers through SRM, and member 1 answers
  // from its reconstructed copy.
  harness::SimSession s(topo::make_chain(3), all_nodes(3), {cfg(), 4, 1});
  FecSession tx(s.agent_at(0), fec_cfg(2, 1));
  FecSession rx1(s.agent_at(1), fec_cfg(2, 1));
  FecSession rx2(s.agent_at(2), fec_cfg(2, 1));
  const PageId page{0, 0};
  auto drops = std::make_shared<net::CompositeDrop>();
  drops->add(drop_seqs(0, 1, {1}));  // everyone downstream loses seq 1
  drops->add(drop_seqs(1, 2, {2}));  // member 2 also loses the parity
  s.network().set_drop_policy(drops);
  tx.send(page, {0x01});
  tx.send(page, {0x02});  // seals: parity at seq 2
  // One more generation so member 2 detects the gap from later traffic.
  tx.send(page, {0x03});
  tx.send(page, {0x04});
  std::size_t rebuilt_repairs = 0;  // repairs of seq 1 sent by member 1
  s.network().set_send_observer([&](net::NodeId from, const net::Packet& p) {
    const auto* r = dynamic_cast<const RepairMessage*>(p.payload.get());
    if (r != nullptr && from == 1 && r->name().seq == 1) ++rebuilt_repairs;
  });
  s.queue().run();
  EXPECT_EQ(rx1.stats().reconstructions, 1u);
  EXPECT_TRUE(s.agent_at(2).has_data(DataName{0, page, 1}));
  EXPECT_GE(s.agent_at(2).metrics().recoveries, 1u);
  EXPECT_GE(rebuilt_repairs, 1u);
}

TEST(FecSessionTest, LostParityIsHarmless) {
  // Only the parity ADU is dropped.  SRM repairs it like any ADU revealed
  // by later traffic, and the application stream is complete either way.
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 6, 1});
  FecSession tx(s.agent_at(0), fec_cfg(2, 1));
  FecSession rx(s.agent_at(1), fec_cfg(2, 1));
  std::size_t app_payloads = 0;
  rx.set_data_handler([&](const DataName&, const Payload&, bool) {
    ++app_payloads;
  });
  const PageId page{0, 0};
  s.network().set_drop_policy(drop_seqs(0, 1, {2}));  // the first parity
  for (int i = 0; i < 4; ++i) {
    tx.send(page, {static_cast<std::uint8_t>(i)});
  }
  s.queue().run();
  EXPECT_EQ(app_payloads, 4u);
  EXPECT_EQ(rx.stats().reconstructions, 0u);
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 2}));
}

TEST(FecSessionTest, TwoErasuresRepairedByGf256Parities) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 4, 1});
  FecSession tx(s.agent_at(0), fec_cfg(3, 2));
  FecSession rx(s.agent_at(1), fec_cfg(3, 2));
  std::map<SeqNo, Payload> delivered;
  rx.set_data_handler([&](const DataName& n, const Payload& p, bool) {
    delivered[n.seq] = p;
  });
  const PageId page{0, 0};
  // Gen 0: seqs 0,1,2 data; 3,4 parity (scheme 1).  Drop two data ADUs —
  // beyond what one XOR parity could ever repair.
  s.network().set_drop_policy(drop_seqs(0, 1, {0, 2}));
  tx.send(page, {0xB0, 0xB0});
  tx.send(page, {0xB1});
  tx.send(page, {0xB2, 0xB2, 0xB2});
  s.queue().run();
  EXPECT_EQ(rx.stats().reconstructions, 2u);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered.at(0), (Payload{0xB0, 0xB0}));
  EXPECT_EQ(delivered.at(2), (Payload{0xB2, 0xB2, 0xB2}));
  EXPECT_EQ(s.agent_at(1).metrics().requests_sent, 0u);
}

TEST(FecSessionTest, OneParityStreamRepairsDistinctLossesAtDistinctReceivers) {
  // The FEC headline: node 1 misses seq 0, node 2 misses seqs 0 AND 1, and
  // the same multicast parity pair repairs both — different erasures at
  // different receivers, no requests, no repairs.
  harness::SimSession s(topo::make_chain(3), all_nodes(3), {cfg(), 5, 1});
  FecSession tx(s.agent_at(0), fec_cfg(2, 2));
  FecSession rx1(s.agent_at(1), fec_cfg(2, 2));
  FecSession rx2(s.agent_at(2), fec_cfg(2, 2));
  const PageId page{0, 0};
  auto drops = std::make_shared<net::CompositeDrop>();
  drops->add(drop_seqs(0, 1, {0}));  // 1 and 2 lose seq 0
  drops->add(drop_seqs(1, 2, {1}));  // 2 additionally loses seq 1
  s.network().set_drop_policy(drops);
  tx.send(page, {0xC0});
  tx.send(page, {0xC1, 0xC1});  // seals: parities at seqs 2 and 3
  s.queue().run();
  EXPECT_EQ(rx1.stats().reconstructions, 1u);
  EXPECT_EQ(rx2.stats().reconstructions, 2u);
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 0}));
  EXPECT_TRUE(s.agent_at(2).has_data(DataName{0, page, 0}));
  EXPECT_TRUE(s.agent_at(2).has_data(DataName{0, page, 1}));
  for (std::size_t i = 0; i < s.member_count(); ++i) {
    EXPECT_EQ(s.agent(i).metrics().requests_sent, 0u) << "member " << i;
    EXPECT_EQ(s.agent(i).metrics().repairs_sent, 0u) << "member " << i;
  }
}

TEST(FecSessionTest, GenerationWithAllDataLostAnchorsAtBaseSeq) {
  // The receiver sees ONLY the two parity frames; base_seq carried on the
  // parity lets it name and supply both reconstructed ADUs.
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 6, 1});
  FecSession tx(s.agent_at(0), fec_cfg(2, 2));
  FecSession rx(s.agent_at(1), fec_cfg(2, 2));
  const PageId page{0, 0};
  s.network().set_drop_policy(drop_seqs(0, 1, {0, 1}));
  tx.send(page, {0xD0});
  tx.send(page, {0xD1});
  s.queue().run();
  EXPECT_EQ(rx.stats().reconstructions, 2u);
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 0}));
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 1}));
  EXPECT_EQ(s.agent_at(1).metrics().requests_sent, 0u);
}

TEST(FecSessionTest, FallsThroughToSrmWhenErasuresExceedParity) {
  // Two erasures, one XOR parity: the code cannot cover it, SRM requests
  // fire, and once SRM has repaired one ADU the parity finishes the other
  // — the two repair schemes compose.
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 7, 1});
  FecSession tx(s.agent_at(0), fec_cfg(3, 1));
  FecSession rx(s.agent_at(1), fec_cfg(3, 1));
  const PageId page{0, 0};
  s.network().set_drop_policy(drop_seqs(0, 1, {0, 1}));
  tx.send(page, {0x01});
  tx.send(page, {0x02});
  tx.send(page, {0x03});
  s.queue().run();
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 0}));
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 1}));
  EXPECT_GE(s.agent_at(1).metrics().requests_sent, 1u);
  EXPECT_LE(rx.stats().reconstructions, 1u);
}

TEST(FecSessionTest, FlushSealsShortGeneration) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 8, 1});
  FecSession tx(s.agent_at(0), fec_cfg(4, 1));
  FecSession rx(s.agent_at(1), fec_cfg(4, 1));
  const PageId page{0, 0};
  s.network().set_drop_policy(drop_seqs(0, 1, {0}));
  tx.send(page, {0xE0, 0xE1});
  tx.flush(page);  // n = 1 generation: the parity alone rebuilds the ADU
  s.queue().run();
  EXPECT_EQ(tx.stats().generations_sealed, 1u);
  EXPECT_EQ(tx.stats().parity_sent, 1u);
  EXPECT_EQ(rx.stats().reconstructions, 1u);
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 0}));
  // flush() with nothing pending is a no-op.
  tx.flush(page);
  EXPECT_EQ(tx.stats().generations_sealed, 1u);
}

// ---------------------------------------------------------------------------
// Adaptive budget, end to end
// ---------------------------------------------------------------------------

TEST(FecSessionTest, RequestsHeardRaiseTheParityBudget) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 9, 1});
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm));
  tracer.set_sink(&sink);
  s.set_tracer(&tracer);
  FecConfig fc = fec_cfg(2, /*initial_k=*/0);  // quiet link: no parity
  FecSession tx(s.agent_at(0), fc);
  FecSession rx(s.agent_at(1), fc);
  const PageId page{0, 0};
  s.network().set_drop_policy(drop_seqs(0, 1, {1}));
  // Gen 0 (unprotected, K == 0): seq 1 is lost; the receiver can only use
  // SRM, whose request the sender hears — that is the loss evidence.
  tx.send(page, {0x10});
  tx.send(page, {0x11});
  // Gen 1's first ADU reveals the gap to the receiver; its request arrives
  // at the sender well before the second ADU seals the generation, so the
  // seal sees the evidence and re-arms K to 1.
  s.queue().schedule_after(50.0, [&] { tx.send(page, {0x12}); });
  s.queue().schedule_after(90.0, [&] { tx.send(page, {0x13}); });
  s.queue().run();
  EXPECT_EQ(tx.stats().parity_sent, 0u);  // both gens sealed at K == 0
  EXPECT_EQ(tx.stats().budget_raises, 1u);
  EXPECT_EQ(tx.current_k(page), 1u);
  EXPECT_GE(s.agent_at(1).metrics().requests_sent, 1u);  // SRM did the work
  std::size_t raises = 0;
  for (const auto& e : sink.events()) {
    if (e.type == trace::EventType::kSrmFecBudgetRaise) {
      ++raises;
      EXPECT_EQ(e.e, 1u);          // k_new
      EXPECT_EQ(e.x, 0.0);         // k_old
      EXPECT_GE(e.y, 1.0);         // evidence count
      EXPECT_EQ(e.actor, 0u);      // the sender
    }
  }
  EXPECT_EQ(raises, 1u);
}

TEST(FecSessionTest, QuietGenerationsDecayTheBudgetToZero) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 10, 1});
  FecConfig fc = fec_cfg(2, /*initial_k=*/2);
  fc.decay_after_quiet = 1;
  FecSession tx(s.agent_at(0), fc);
  FecSession rx(s.agent_at(1), fc);
  const PageId page{0, 0};
  for (int i = 0; i < 6; ++i) {
    tx.send(page, {static_cast<std::uint8_t>(i)});
  }
  s.queue().run();
  // Gen 0 at K=2, gen 1 at K=1, gen 2 at K=0: 3 parities total.
  EXPECT_EQ(tx.stats().parity_sent, 3u);
  EXPECT_EQ(tx.stats().budget_decays, 2u);
  EXPECT_EQ(tx.current_k(page), 0u);
}

// ---------------------------------------------------------------------------
// Parallel-kernel determinism
// ---------------------------------------------------------------------------

std::vector<trace::Event> run_traced_fec(unsigned kernel_threads) {
  harness::SimSession s(topo::make_chain(4), all_nodes(4),
                        {cfg(), 11, 1, kernel_threads, /*kernel_regions=*/2});
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_mask(trace::kMaskAll);
  tracer.set_sink(&sink);
  s.set_tracer(&tracer);
  std::vector<std::unique_ptr<FecSession>> sessions;
  for (net::NodeId n : s.member_nodes()) {
    sessions.push_back(
        std::make_unique<FecSession>(s.agent_at(n), fec_cfg(2, 2)));
  }
  const PageId page{0, 0};
  auto drops = std::make_shared<net::CompositeDrop>();
  drops->add(drop_seqs(0, 1, {0}));
  drops->add(drop_seqs(2, 3, {1}));
  s.network().set_drop_policy(drops);
  sessions[0]->send(page, {0x21});
  sessions[0]->send(page, {0x22, 0x23});
  s.run();
  return sink.events();
}

TEST(FecSessionTest, TracesBitIdenticalAcrossKernelThreads) {
  const auto reference = run_traced_fec(1);
  ASSERT_FALSE(reference.empty());
  // The run must actually exercise the FEC paths being checked.
  EXPECT_TRUE(std::any_of(reference.begin(), reference.end(),
                          [](const trace::Event& e) {
                            return e.type ==
                                   trace::EventType::kSrmFecReconstruct;
                          }));
  for (unsigned threads : {2u, 8u}) {
    const auto events = run_traced_fec(threads);
    ASSERT_EQ(events.size(), reference.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i], reference[i])
          << "event " << i << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-plan integration
// ---------------------------------------------------------------------------

TEST(FecSessionTest, BurstEpochFloorsBudgetAndCheckerPasses) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 12, 1});
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                  static_cast<std::uint32_t>(trace::Category::kFault));
  tracer.set_sink(&sink);
  s.set_tracer(&tracer);

  FecConfig fc = fec_cfg(2, /*initial_k=*/1);
  fc.decay_after_quiet = 1;
  FecSession tx(s.agent_at(0), fc);
  FecSession rx(s.agent_at(1), fc);
  const PageId page{0, 0};

  // The plan's epoch markers drive the budget; the loss probabilities are
  // zero so the damage below is fully scripted (deterministic).
  net::GilbertElliottDrop::Params ge;
  ge.loss_good = 0.0;
  ge.loss_bad = 0.0;
  fault::FaultPlan plan;
  plan.burst_on(5.0, ge);
  plan.burst_off(40.0);
  fault::FaultInjector injector(s.queue(), s.mutable_topology(), s.network(),
                                std::move(plan), util::Rng(12));
  injector.set_tracer(s.control_tracer());
  injector.set_epoch_observer(
      [&](bool active, const net::GilbertElliottDrop::Params&) {
        tx.set_burst_epoch(active);
        rx.set_burst_epoch(active);
      });
  injector.arm();

  // A consecutive two-ADU loss: exactly the burst pattern K == 1 XOR parity
  // cannot repair, and exactly what the epoch floor (K = 2) covers.
  s.network().set_drop_policy(drop_seqs(0, 1, {3, 4}));

  // t=1 (pre-burst): gen 0 seals at K=1, then decays to 0 (quiet).
  s.queue().schedule_after(1.0, [&] {
    tx.send(page, {0x30});
    tx.send(page, {0x31});
  });
  // t=10 (burst active): the epoch floored K to 2, so gen 1 carries two
  // GF(256) parities (seqs 5,6) that repair the scripted double loss.
  s.queue().schedule_after(10.0, [&] {
    EXPECT_TRUE(tx.burst_epoch_active());
    EXPECT_EQ(tx.current_k(page), 2u);
    tx.send(page, {0x32});
    tx.send(page, {0x33});
  });
  // t=50/60 (post-burst, quiet): K decays 2 -> 1 -> 0.
  s.queue().schedule_after(50.0, [&] {
    tx.send(page, {0x34});
    tx.send(page, {0x35});
  });
  s.queue().schedule_after(60.0, [&] {
    tx.send(page, {0x36});
    tx.send(page, {0x37});
  });
  s.queue().run();

  EXPECT_EQ(rx.stats().reconstructions, 2u);
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 3}));
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 4}));
  EXPECT_EQ(s.agent_at(1).metrics().requests_sent, 0u);
  EXPECT_EQ(tx.current_k(page), 0u);
  EXPECT_FALSE(tx.burst_epoch_active());
  EXPECT_GE(tx.stats().budget_decays, 3u);  // pre-burst + two post-burst

  // Every loss in the trace recovered within the checker's deadline, with
  // zero request/repair traffic for the burst generation.
  const auto report = fault::RecoveryInvariantChecker().check(
      sink.events(), injector.disruption_windows(), s.now());
  EXPECT_TRUE(report.passed) << report.summary();
  // The trace shows the whole story: epoch markers and FEC reconstructions.
  bool saw_burst_on = false, saw_reconstruct = false;
  for (const auto& e : sink.events()) {
    saw_burst_on |= e.type == trace::EventType::kFaultBurstOn;
    saw_reconstruct |= e.type == trace::EventType::kSrmFecReconstruct;
  }
  EXPECT_TRUE(saw_burst_on);
  EXPECT_TRUE(saw_reconstruct);
}

}  // namespace
}  // namespace srm::fec
