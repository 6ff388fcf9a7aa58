// Behavioral tests of the SRM request/repair machinery against the paper's
// Section III-B semantics and the Section IV analyses for chains and stars.
#include <gtest/gtest.h>

#include <memory>

#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "trace/timeline.h"
#include "trace/trace.h"

namespace srm {
namespace {

using harness::DirectedLink;
using harness::RoundSpec;
using harness::SimSession;
using harness::run_loss_round;

SrmConfig deterministic_chain_config() {
  // Sec. IV-A: C1 = D1 = 1, C2 = D2 = 0 makes timers deterministic.
  SrmConfig cfg;
  cfg.timers = TimerParams{1.0, 0.0, 1.0, 0.0};
  return cfg;
}

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

// --- basic data path ---------------------------------------------------------

TEST(AgentDataTest, DataReachesAllMembers) {
  SimSession s(topo::make_chain(4), all_nodes(4), {SrmConfig{}, 1, 1});
  const DataName name = s.agent(0).send_data(PageId{0, 0}, {1, 2, 3});
  s.queue().run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.agent(i).has_data(name)) << i;
  }
  const Payload* p = s.agent(3).find_data(name);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, (Payload{1, 2, 3}));
}

TEST(AgentDataTest, SequenceNumbersIncreasePerPage) {
  SimSession s(topo::make_chain(2), all_nodes(2), {SrmConfig{}, 1, 1});
  const PageId p0{0, 0}, p1{0, 1};
  EXPECT_EQ(s.agent(0).send_data(p0, {}).seq, 0u);
  EXPECT_EQ(s.agent(0).send_data(p0, {}).seq, 1u);
  EXPECT_EQ(s.agent(0).send_data(p1, {}).seq, 0u);  // per-page numbering
}

TEST(AgentDataTest, AppHookSeesDeliveries) {
  SimSession s(topo::make_chain(3), all_nodes(3), {SrmConfig{}, 1, 1});
  int deliveries = 0;
  bool repair_flag = true;
  SrmAgent::AppHooks hooks;
  hooks.on_data = [&](const DataName&, const Payload&, bool via_repair) {
    ++deliveries;
    repair_flag = via_repair;
  };
  s.agent(2).set_app_hooks(std::move(hooks));
  s.agent(0).send_data(PageId{0, 0}, {9});
  s.queue().run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_FALSE(repair_flag);
}

TEST(AgentDataTest, DuplicateDeliveryIgnored) {
  SimSession s(topo::make_chain(2), all_nodes(2), {SrmConfig{}, 1, 1});
  int deliveries = 0;
  SrmAgent::AppHooks hooks;
  hooks.on_data = [&](const DataName&, const Payload&, bool) { ++deliveries; };
  s.agent(1).set_app_hooks(std::move(hooks));
  s.agent(0).send_data(PageId{0, 0}, {1});
  s.queue().run();
  // Seed the same ADU again through the network: no second app delivery.
  s.agent(0).send_data(PageId{0, 0}, {2});
  s.queue().run();
  EXPECT_EQ(deliveries, 2);  // two distinct ADUs, one delivery each
}

TEST(AgentDataTest, SeedDataSuppressesHistoryRequests) {
  SimSession s(topo::make_chain(3), all_nodes(3), {SrmConfig{}, 1, 1});
  const PageId page{0, 0};
  // Agents 1, 2 already have seqs 0..2 of member 0's stream.
  for (SeqNo q = 0; q < 3; ++q) {
    const DataName n{0, page, q};
    s.agent(0).seed_data(n, {});
    s.agent(1).seed_data(n, {});
    s.agent(2).seed_data(n, {});
  }
  const DataName next = s.agent(0).send_data(page, {});
  EXPECT_EQ(next.seq, 3u);  // seeding advanced the sender's own counter
  s.queue().run();
  EXPECT_EQ(s.agent(1).metrics().losses_detected, 0u);
  EXPECT_EQ(s.agent(2).metrics().requests_sent, 0u);
}

// --- chain: deterministic suppression (Sec. IV-A) ----------------------------

TEST(ChainRecoveryTest, ExactlyOneRequestAndOneRepair) {
  // Chain of 8; source node 0; drop on link (3,4).  With C1=D1=1, C2=D2=0
  // there must be exactly one request (from node 4) and one repair (from
  // node 3): deterministic suppression.  Asserted on the recovery timeline
  // reconstructed from the structured trace, not just aggregate counters.
  SimSession s(topo::make_chain(8), all_nodes(8),
               {deterministic_chain_config(), 1, 1});
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm));
  s.set_tracer(&tracer);
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{3, 4};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_EQ(r.affected, 4u);   // nodes 4..7
  EXPECT_EQ(r.recovered, 4u);

  const auto timeline = trace::RecoveryTimeline::fold(sink.events());
  ASSERT_EQ(timeline.stories().size(), 1u);
  const trace::RecoveryStory& story = timeline.stories()[0];
  EXPECT_EQ(story.adu, (trace::AduKey{0, 0, 0, 0}));
  EXPECT_EQ(story.requests_sent, 1u);
  EXPECT_EQ(story.repairs_sent, 1u);
  // The request came from node 4 and the repair from node 3.
  EXPECT_EQ(story.first_requestor, 4u);
  EXPECT_EQ(story.first_responder, 3u);
  EXPECT_EQ(story.detections, 4u);
  EXPECT_EQ(story.recoveries, 4u);
  // Timeline totals agree with the aggregate counters.
  EXPECT_EQ(timeline.total_requests(), r.requests);
  EXPECT_EQ(timeline.total_repairs(), r.repairs);
}

TEST(ChainRecoveryTest, DelayAlgebraMatchesSectionIVA) {
  // Paper timeline (distance 1 per link, loss detected at node A=right of
  // congested link at time t): A sends request at t + d(A,S);
  // B (=left of link) repairs at +2 after receiving; farthest node delay
  // follows from link distances.  Verify the final recovery delay for the
  // farthest node is below its unicast bound (2 RTT) and that recovery
  // delay < 1 RTT for the node adjacent to the failure.
  SimSession s(topo::make_chain(10), all_nodes(10),
               {deterministic_chain_config(), 3, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{4, 5};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_EQ(r.requests, 1u);
  EXPECT_EQ(r.repairs, 1u);
  // Node 5 is adjacent to the failure: both request and repair are local,
  // so its recovery delay is far below its own RTT to the source.
  const auto& m5 = s.agent_at(5).metrics();
  ASSERT_EQ(m5.recovery_delay_rtt.count(), 1u);
  EXPECT_LT(m5.recovery_delay_rtt.values()[0], 1.0);
  // The last member's delay (in its own RTT units) beats TCP-style 2 RTT.
  EXPECT_LT(r.last_member_delay_rtt, 2.0);
}

TEST(ChainRecoveryTest, RequestTimingIsDistanceScaled) {
  // Node A at distance d from the source sets its request timer to exactly
  // C1 * d with C2 = 0; nodes further away are suppressed before expiry.
  // The trace exposes the timer delays and the deterministic suppression
  // order directly, so assert on those.
  SimSession s(topo::make_chain(6), all_nodes(6),
               {deterministic_chain_config(), 1, 1});
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm));
  s.set_tracer(&tracer);
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{1, 2};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);

  const auto timeline = trace::RecoveryTimeline::fold(sink.events());
  ASSERT_EQ(timeline.stories().size(), 1u);
  const trace::RecoveryStory& story = timeline.stories()[0];
  EXPECT_EQ(story.requests_sent, 1u);
  EXPECT_EQ(story.first_requestor, 2u);  // closest affected member wins
  EXPECT_EQ(timeline.total_requests(), r.requests);

  // Every affected member armed a request timer of exactly C1 * d (C2 = 0,
  // no backoff yet), where d is its chain distance to the source.
  std::size_t timers_seen = 0;
  for (const trace::StoryEntry& entry : story.entries) {
    if (entry.type != trace::EventType::kSrmReqTimerSet || entry.arg != 0) {
      continue;
    }
    ++timers_seen;
    EXPECT_DOUBLE_EQ(entry.x, static_cast<double>(entry.actor));
  }
  EXPECT_EQ(timers_seen, 4u);  // nodes 2..5

  // Request suppression (the req_backoff events) runs outward from the
  // requestor, in deterministic nearest-first order.  (suppression_order
  // itself also carries rep_suppress actors, so filter by type here.)
  std::vector<std::uint64_t> backoff_order;
  for (const trace::StoryEntry& entry : story.entries) {
    if (entry.type == trace::EventType::kSrmReqBackoff) {
      backoff_order.push_back(entry.actor);
    }
  }
  EXPECT_EQ(backoff_order, (std::vector<std::uint64_t>{3, 4, 5}));
}

// --- star: probabilistic suppression (Sec. IV-B) -----------------------------

TEST(StarRecoveryTest, LargeC2KeepsDuplicatesLow) {
  // G = 30 leaves, source is leaf 0, drop adjacent to the source: all other
  // members detect simultaneously.  With C1=0 and large C2 the expected
  // number of requests ~ 1 + sqrt(2G/C2) stays small.
  auto star = topo::make_star(30);
  SrmConfig cfg;
  cfg.timers = TimerParams{0.0, 60.0, 0.0, 60.0};
  SimSession s(std::move(star.topo), star.leaves, {cfg, 5, 1});
  RoundSpec spec;
  spec.source_node = star.leaves[0];
  spec.congested = DirectedLink{star.leaves[0], star.center};
  spec.page = PageId{static_cast<SourceId>(star.leaves[0]), 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_EQ(r.affected, 29u);
  EXPECT_EQ(r.recovered, 29u);
  EXPECT_LE(r.requests, 5u);  // E ~ 2; generous bound for one seed
  EXPECT_GE(r.requests, 1u);
}

TEST(StarRecoveryTest, TinyC2CausesImplosion) {
  // With C2 = 0.1 nearly every member's timer fires before the first
  // request reaches it: the NACK implosion SRM's randomization prevents.
  auto star = topo::make_star(30);
  SrmConfig cfg;
  cfg.timers = TimerParams{0.0, 0.1, 0.0, 60.0};
  SimSession s(std::move(star.topo), star.leaves, {cfg, 5, 1});
  RoundSpec spec;
  spec.source_node = star.leaves[0];
  spec.congested = DirectedLink{star.leaves[0], star.center};
  spec.page = PageId{static_cast<SourceId>(star.leaves[0]), 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_GE(r.requests, 20u);
  EXPECT_EQ(r.recovered, 29u);  // still recovers despite the implosion
}

TEST(StarRecoveryTest, OnlySourceAnswersWhenOnlySourceHasData) {
  // Drop adjacent to the source: every other member misses the packet, so
  // the sole possible responder is the source itself.
  auto star = topo::make_star(10);
  SrmConfig cfg;
  cfg.timers = TimerParams{0.0, 20.0, 0.0, 20.0};
  SimSession s(std::move(star.topo), star.leaves, {cfg, 9, 1});
  RoundSpec spec;
  spec.source_node = star.leaves[0];
  spec.congested = DirectedLink{star.leaves[0], star.center};
  spec.page = PageId{static_cast<SourceId>(star.leaves[0]), 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_EQ(s.agent_at(star.leaves[0]).metrics().repairs_sent, r.repairs);
  EXPECT_GE(r.repairs, 1u);
}

// --- backoff, suppression details -------------------------------------------

TEST(BackoffTest, LoneLossBacksOffUntilRepair) {
  // Drop on a leaf link: a single member misses the packet.  Its first
  // request may go unanswered only if requests are dropped; here the repair
  // arrives, and the member must not send a second request while waiting
  // (backed-off timer cancelled on repair).
  SimSession s(topo::make_chain(4), all_nodes(4),
               {deterministic_chain_config(), 2, 1});
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{2, 3};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_EQ(s.agent_at(3).metrics().requests_sent, 1u);
  EXPECT_EQ(r.recovered, 1u);
  EXPECT_FALSE(s.agent_at(3).request_pending(DataName{0, spec.page, 0}));
}

TEST(BackoffTest, RequestRetriesWhenRequestsAreLost) {
  // Drop the data packet AND the first request: the requester must back off
  // and retransmit, and recovery must still complete.
  SimSession s(topo::make_chain(4), all_nodes(4),
               {deterministic_chain_config(), 2, 1});
  auto& net = s.network();
  auto composite = std::make_shared<net::CompositeDrop>();
  // Second policy: drop the first REQUEST crossing (3->2).
  composite->add(std::make_shared<net::ScriptedLinkDrop>(
      3, 2, [](const net::Packet& p) {
        return dynamic_cast<const RequestMessage*>(p.payload.get()) != nullptr;
      }));
  // First: drop DATA seq 0 on (2,3).
  composite->add(std::make_shared<net::ScriptedLinkDrop>(
      2, 3, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      }));
  net.set_drop_policy(composite);

  SrmAgent& src = s.agent_at(0);
  const PageId page{0, 0};
  src.send_data(page, {});
  s.queue().schedule_after(1.0, [&] { src.send_data(page, {}); });
  s.queue().run();

  EXPECT_EQ(s.agent_at(3).metrics().requests_sent, 2u);  // retry happened
  EXPECT_TRUE(s.agent_at(3).has_data(DataName{0, page, 0}));
  net.set_drop_policy(nullptr);
}

TEST(BackoffTest, BackoffFactorThreeSpreadsRetries) {
  SrmConfig cfg = deterministic_chain_config();
  cfg.backoff_factor = 3.0;
  SimSession s(topo::make_chain(3), all_nodes(3), {cfg, 2, 1});
  // Drop DATA seq 0 on (1,2) and black-hole every request from node 2, so
  // the requester keeps retrying until it abandons.
  auto composite = std::make_shared<net::CompositeDrop>();
  composite->add(std::make_shared<net::ScriptedLinkDrop>(
      1, 2, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      }));
  composite->add(std::make_shared<net::ScriptedLinkDrop>(
      2, 1,
      [](const net::Packet& p) {
        return dynamic_cast<const RequestMessage*>(p.payload.get()) != nullptr;
      },
      /*max_drops=*/1000));
  s.network().set_drop_policy(composite);
  const PageId page{0, 0};
  s.agent_at(0).send_data(page, {});
  s.queue().schedule_after(1.0, [&] { s.agent_at(0).send_data(page, {}); });
  s.queue().run();
  // kMaxRequestBackoffs = 16 caps the retries; recovery is abandoned.
  EXPECT_EQ(s.agent_at(2).metrics().recovery_abandoned, 1u);
  EXPECT_GT(s.agent_at(2).metrics().requests_sent, 5u);
  s.network().set_drop_policy(nullptr);
}

TEST(HolddownTest, DuplicateRequestDoesNotRetriggerRepair) {
  // After answering a request, a member ignores further requests for the
  // same data for 3 * d_S seconds (Sec. III-B).
  SrmConfig cfg = deterministic_chain_config();
  SimSession s(topo::make_chain(3), all_nodes(3), {cfg, 2, 1});
  const PageId page{0, 0};
  // Seed: only node 1 has the data besides the source.
  const DataName name{0, page, 0};
  s.agent_at(0).seed_data(name, {});
  s.agent_at(1).seed_data(name, {});

  // Node 2 learns of the data (via a session report) and requests it.
  s.agent_at(1).set_current_page(page);
  s.agent_at(1).send_session_message();
  s.queue().run();
  EXPECT_TRUE(s.agent_at(2).has_data(name));
  const auto repairs_after_first = s.agent_at(1).metrics().repairs_sent;
  EXPECT_EQ(repairs_after_first, 1u);
}

// --- request reveals data existence (Sec. III-B) ------------------------------

TEST(RequestRevealsDataTest, ThirdPartySetsSuppressedTimer) {
  // A request overheard for unknown data makes the member join the recovery
  // in the backed-off state rather than requesting immediately.
  SrmConfig cfg;
  cfg.timers = TimerParams{1.0, 1.0, 1.0, 1.0};
  SimSession s(topo::make_chain(3), all_nodes(3), {cfg, 4, 1});
  const PageId page{0, 0};
  const DataName name{0, page, 0};
  // Only the source (node 0) has the data; nodes 1 and 2 never saw it.
  s.agent_at(0).seed_data(name, {});
  // Node 2 hears about it from a session message and requests; node 1
  // overhears the request en route.
  s.agent_at(0).set_current_page(page);
  s.agent_at(0).send_session_message();
  s.queue().run();
  EXPECT_TRUE(s.agent_at(1).has_data(name));
  EXPECT_TRUE(s.agent_at(2).has_data(name));
  // The repair satisfied both members; at most one of them requested.
  EXPECT_LE(s.agent_at(1).metrics().requests_sent +
                s.agent_at(2).metrics().requests_sent,
            2u);
  EXPECT_EQ(s.agent_at(1).metrics().recoveries +
                s.agent_at(2).metrics().recoveries,
            2u);
}

// --- session-message-driven tail-loss detection ------------------------------

TEST(TailLossTest, SessionMessageDetectsLastPacketLoss) {
  // The last packet of a burst is dropped; no subsequent data reveals the
  // gap, so only a session message can (Sec. III-A).
  SimSession s(topo::make_chain(3), all_nodes(3),
               {deterministic_chain_config(), 2, 1});
  const PageId page{0, 0};
  s.for_each_agent([&](SrmAgent& a) { a.set_current_page(page); });
  // Drop DATA seq 0 on (1,2); send only that one packet.
  s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      1, 2, [](const net::Packet& p) {
        return dynamic_cast<const DataMessage*>(p.payload.get()) != nullptr;
      }));
  s.agent_at(0).send_data(page, {});
  s.queue().run();
  EXPECT_FALSE(s.agent_at(2).has_data(DataName{0, page, 0}));
  s.network().set_drop_policy(nullptr);
  // Node 1's session message announces seq 0; node 2 detects and recovers.
  s.agent_at(1).send_session_message();
  s.queue().run();
  EXPECT_TRUE(s.agent_at(2).has_data(DataName{0, page, 0}));
  EXPECT_EQ(s.agent_at(2).metrics().losses_detected, 1u);
}

// --- late joiner --------------------------------------------------------------

TEST(LateJoinerTest, RecoversFullHistory) {
  // A member that joins after 5 ADUs were sent learns the state from a
  // session message and pulls the entire back history via requests.
  SimSession s(topo::make_chain(4), {0, 1, 2}, {deterministic_chain_config(), 6, 1});
  const PageId page{0, 0};
  s.for_each_agent([&](SrmAgent& a) { a.set_current_page(page); });
  for (int i = 0; i < 5; ++i) s.agent_at(0).send_data(page, {});
  s.queue().run();

  // Node 3 joins late.
  SrmConfig cfg = deterministic_chain_config();
  MemberDirectory& dir = s.directory();
  SrmAgent late(s.network(), dir, 3, 3, 1, cfg, util::Rng(99));
  late.start();
  late.set_current_page(page);
  s.agent_at(2).send_session_message();
  s.queue().run();
  for (SeqNo q = 0; q < 5; ++q) {
    EXPECT_TRUE(late.has_data(DataName{0, page, q})) << q;
  }
  EXPECT_EQ(late.metrics().recoveries, 5u);
  late.stop();
}

// --- local recovery: two-step TTL-scoped repairs ------------------------------

TEST(LocalRecoveryTest, TwoStepRepairCoversRequestScope) {
  // Chain 0..7, drop on (5,6): nodes 6,7 share the loss.  Node 6 requests
  // with TTL 2 (enough to reach holder node 5 and co-loser node 7).
  SrmConfig cfg = deterministic_chain_config();
  cfg.local_recovery.enabled = true;
  cfg.local_recovery.two_step = true;
  SimSession s(topo::make_chain(8), all_nodes(8), {cfg, 2, 1});
  s.agent_at(6).set_request_ttl_policy([](const DataName&) { return 2; });
  // Keep other affected members quiet so the scoped request is the only one:
  // node 7 hears 6's request (TTL 2 reaches it) and suppresses.
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{5, 6};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_EQ(r.recovered, 2u);
  // Two-step: step 1 from node 5 (TTL 2), step 2 re-multicast by node 6.
  EXPECT_EQ(r.repairs, 2u);
  // The repairs never reached nodes 0..3 (scoped), so the repair
  // neighborhood is much smaller than the session.
  EXPECT_LE(r.members_reached_by_repair, 5u);
  EXPECT_TRUE(s.agent_at(7).has_data(DataName{0, spec.page, 0}));
}

TEST(LocalRecoveryTest, OneStepRepairOvercovers) {
  SrmConfig cfg = deterministic_chain_config();
  cfg.local_recovery.enabled = true;
  cfg.local_recovery.two_step = false;
  SimSession s(topo::make_chain(8), all_nodes(8), {cfg, 2, 1});
  s.agent_at(6).set_request_ttl_policy([](const DataName&) { return 2; });
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{5, 6};
  spec.page = PageId{0, 0};
  const auto r = run_loss_round(s, spec, 0);
  EXPECT_EQ(r.recovered, 2u);
  EXPECT_EQ(r.repairs, 1u);  // single repair at TTL request+hops
  // One-step repair TTL = 2 + 1 hops = 3 from node 5: reaches 2..7 side.
  EXPECT_GE(r.members_reached_by_repair, 4u);
}

TEST(LocalRecoveryTest, AdminScopeConfinesRecovery) {
  // Two admin regions split at the tree root; recovery inside one region
  // never leaks requests into the other.
  auto topo = topo::make_bounded_degree_tree(13, 4);
  topo::assign_subtree_regions(topo, 0);
  SrmConfig cfg = deterministic_chain_config();
  SimSession s(std::move(topo), all_nodes(13), {cfg, 3, 1});
  s.for_each_agent([](SrmAgent& a) { a.set_use_admin_scope(true); });

  const PageId page{1, 0};
  const DataName name{1, page, 0};
  // Node 1 (region of subtree 1) holds data; node 5 (child of 1, same
  // region) is missing it and requests with admin scope.
  s.agent_at(1).seed_data(name, {});
  std::size_t requests_heard_outside = 0;
  s.network().set_delivery_observer(
      [&](const net::Packet& p, const net::DeliveryInfo& info) {
        if (dynamic_cast<const RequestMessage*>(p.payload.get()) != nullptr &&
            s.topology().admin_region(info.receiver) !=
                s.topology().admin_region(1)) {
          ++requests_heard_outside;
        }
      });
  s.agent_at(1).set_current_page(page);
  s.agent_at(1).send_session_message();
  s.queue().run();
  // Members of node 1's subtree (5, 6, 7) recovered; no request escaped.
  EXPECT_TRUE(s.agent_at(5).has_data(name));
  EXPECT_EQ(requests_heard_outside, 0u);
  s.network().set_delivery_observer(nullptr);
}

// --- adaptive integration ------------------------------------------------------

TEST(AdaptiveIntegrationTest, RepeatedRoundsReduceDuplicates) {
  // A sparse session on a big tree with fixed timers produces duplicate
  // requests/repairs; with the adaptive algorithm enabled the per-round
  // totals must fall to ~1 request and ~1 repair within 40 rounds.
  util::Rng rng(12);
  auto topo = topo::make_bounded_degree_tree(200, 4);
  auto members = harness::choose_members(200, 30, rng);
  SrmConfig cfg;
  cfg.timers = paper_fixed_params(members.size());
  cfg.adaptive.enabled = true;
  cfg.backoff_factor = 3.0;
  SimSession s(std::move(topo), members, {cfg, 12, 1});

  const net::NodeId source = members[0];
  const auto congested = harness::choose_congested_link(
      s.network().routing(), source, members, rng);
  RoundSpec spec;
  spec.source_node = source;
  spec.congested = congested;
  spec.page = PageId{static_cast<SourceId>(source), 0};

  std::size_t late_requests = 0, late_repairs = 0, late_rounds = 0;
  for (int round = 0; round < 60; ++round) {
    auto drop_rearm = spec;  // sequence numbers advance by 2 per round
    const auto r = run_loss_round(s, drop_rearm, /*seq=*/round * 2);
    ASSERT_EQ(r.recovered, r.affected);
    if (round >= 40) {
      late_requests += r.requests;
      late_repairs += r.repairs;
      ++late_rounds;
    }
  }
  // "Steady state" (paper Fig. 13): ~1-2 requests and repairs per loss.
  // The bound is loose because one 20-round window of one seed is noisy.
  EXPECT_LE(static_cast<double>(late_requests) / late_rounds, 2.5);
  EXPECT_LE(static_cast<double>(late_repairs) / late_rounds, 2.5);
}

}  // namespace
}  // namespace srm
