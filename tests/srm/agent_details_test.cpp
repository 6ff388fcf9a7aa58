// Fine-grained timing and bookkeeping tests for SrmAgent: exact timer
// values in deterministic configurations, hold-down windows, the
// ignore-backoff heuristic, advertised-max semantics, metrics, and the
// member directory.
#include <gtest/gtest.h>

#include <memory>

#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/baseline.h"
#include "srm/messages.h"
#include "topo/builders.h"

namespace srm {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

SrmConfig det_cfg() {
  SrmConfig cfg;
  cfg.timers = TimerParams{1.0, 0.0, 1.0, 0.0};
  return cfg;
}

// Captures (time, description) of every send.
struct SendLog {
  explicit SendLog(harness::SimSession& s) : session(&s) {
    s.network().set_send_observer([this](net::NodeId from,
                                         const net::Packet& p) {
      entries.push_back({session->queue().now(), from,
                         p.payload->describe()});
    });
  }
  struct Entry {
    double t;
    net::NodeId from;
    std::string what;
  };
  harness::SimSession* session;
  std::vector<Entry> entries;

  const Entry* find(const std::string& prefix, std::size_t nth = 0) const {
    std::size_t seen = 0;
    for (const auto& e : entries) {
      if (e.what.rfind(prefix, 0) == 0 && seen++ == nth) return &e;
    }
    return nullptr;
  }
};

TEST(AgentTimingTest, DeterministicRequestAndRepairInstants) {
  // Chain 0-1-2-3, drop on (1,2), source 0 sends at t=0 and t=1.
  // Node 2: detects at t=3 (seq1 arrives 1+2), request timer C1*d = 2,
  //   request at t=5.  Node 1 receives it at t=6, repair timer D1*d(1,2)=1,
  //   repair at t=7, reaching node 2 at t=8 and node 3 at t=9.
  harness::SimSession s(topo::make_chain(4), all_nodes(4), {det_cfg(), 1, 1});
  SendLog log(s);
  s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      1, 2, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      }));
  const PageId page{0, 0};
  s.agent_at(0).send_data(page, {1});
  s.queue().schedule_after(1.0, [&] { s.agent_at(0).send_data(page, {2}); });
  s.queue().run();

  const auto* req = log.find("REQUEST");
  ASSERT_NE(req, nullptr);
  EXPECT_DOUBLE_EQ(req->t, 5.0);
  EXPECT_EQ(req->from, 2u);
  const auto* rep = log.find("REPAIR");
  ASSERT_NE(rep, nullptr);
  EXPECT_DOUBLE_EQ(rep->t, 7.0);
  EXPECT_EQ(rep->from, 1u);

  // Recovery delays: node 2 detected at 3, repaired at 8 (delay 5, RTT 4);
  // node 3 detected at 4, repaired at 9 (delay 5, RTT 6).
  const auto& m2 = s.agent_at(2).metrics();
  ASSERT_EQ(m2.recovery_delay_seconds.count(), 1u);
  EXPECT_DOUBLE_EQ(m2.recovery_delay_seconds.values()[0], 5.0);
  EXPECT_DOUBLE_EQ(m2.recovery_delay_rtt.values()[0], 5.0 / 4.0);
  const auto& m3 = s.agent_at(3).metrics();
  EXPECT_DOUBLE_EQ(m3.recovery_delay_seconds.values()[0], 5.0);
  EXPECT_DOUBLE_EQ(m3.recovery_delay_rtt.values()[0], 5.0 / 6.0);
}

TEST(AgentTimingTest, RequestDelayMetricNormalizedByRtt) {
  harness::SimSession s(topo::make_chain(4), all_nodes(4), {det_cfg(), 1, 1});
  s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      1, 2, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      }));
  const PageId page{0, 0};
  s.agent_at(0).send_data(page, {1});
  s.queue().schedule_after(1.0, [&] { s.agent_at(0).send_data(page, {2}); });
  s.queue().run();
  // Node 2 sent its own request after exactly C1*d = 2s; its RTT is 4.
  const auto& m2 = s.agent_at(2).metrics();
  ASSERT_EQ(m2.request_delay_rtt.count(), 1u);
  EXPECT_DOUBLE_EQ(m2.request_delay_rtt.values()[0], 0.5);
  // Node 3's timer (3s) was reset by node 2's request arriving 1s after it
  // was sent, i.e. 3s after node 3 set its timer at detection... node 3
  // detects at t=4, sets timer for t=7; the request (t=5) arrives t=6:
  // delay 2s over RTT 6.
  const auto& m3 = s.agent_at(3).metrics();
  ASSERT_EQ(m3.request_delay_rtt.count(), 1u);
  EXPECT_DOUBLE_EQ(m3.request_delay_rtt.values()[0], 2.0 / 6.0);
}

TEST(AgentHolddownTest, WindowScalesWithDistanceToSource) {
  // After answering, node 1 ignores duplicate requests for 3*d(1, source)
  // = 3 seconds (d = 1).  A forged duplicate inside the window triggers
  // nothing; one after the window triggers a second repair.
  harness::SimSession s(topo::make_chain(3), all_nodes(3), {det_cfg(), 4, 1});
  const PageId page{0, 0};
  const DataName name{0, page, 0};
  s.agent_at(0).seed_data(name, {7});
  s.agent_at(1).seed_data(name, {7});

  SendLog log(s);
  // Node 2 requests (via session message from node 1), gets the repair.
  s.agent_at(1).set_current_page(page);
  s.agent_at(1).send_session_message();
  s.queue().run();
  const std::size_t repairs_before = s.agent_at(1).metrics().repairs_sent;
  ASSERT_GE(repairs_before, 1u);

  // Duplicate request injected well after the hold-down expired: answered.
  s.queue().schedule_after(100.0, [&] {
    net::Packet p;
    p.group = 1;
    p.payload = std::make_shared<RequestMessage>(name, 2, 1.0, net::kMaxTtl);
    s.network().multicast(2, std::move(p));
  });
  s.queue().run();
  EXPECT_EQ(s.agent_at(1).metrics().repairs_sent +
                s.agent_at(0).metrics().repairs_sent,
            repairs_before + 1);
}

TEST(AgentIgnoreBackoffTest, SameIterationDuplicatesDoNotCascade) {
  // Two members miss the same packet and both request near-simultaneously.
  // With the heuristic, hearing the other's request inside the ignore
  // window must not push the backed-off timer further out.
  for (bool heuristic : {true, false}) {
    auto star = topo::make_star(4);
    SrmConfig cfg;
    cfg.timers = TimerParams{1.0, 0.1, 1.0, 5.0};
    cfg.ignore_backoff_heuristic = heuristic;
    harness::SimSession s(star.topo, star.leaves, {cfg, 6, 1});
    s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
        star.leaves[0], star.center, [](const net::Packet& p) {
          const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
          return d != nullptr && d->name().seq == 0;
        }));
    const PageId page{static_cast<SourceId>(star.leaves[0]), 0};
    s.agent_at(star.leaves[0]).send_data(page, {1});
    s.queue().schedule_after(
        1.0, [&] { s.agent_at(star.leaves[0]).send_data(page, {2}); });
    s.queue().run();
    // Either way everyone recovers; the heuristic affects only dynamics.
    for (std::size_t i = 1; i < star.leaves.size(); ++i) {
      EXPECT_TRUE(s.agent_at(star.leaves[i]).has_data(DataName{
          static_cast<SourceId>(star.leaves[0]), page, 0}))
          << "heuristic=" << heuristic;
    }
  }
}

TEST(AgentStateTest, AdvertisedMaxTracksAllEvidence) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {det_cfg(), 2, 1});
  const PageId page{0, 0};
  const StreamKey stream{0, page};
  EXPECT_FALSE(s.agent_at(1).advertised_max(stream).has_value());
  s.agent_at(0).send_data(page, {});
  s.queue().run();
  EXPECT_EQ(s.agent_at(1).advertised_max(stream), SeqNo{0});
  s.agent_at(0).send_data(page, {});
  s.agent_at(0).send_data(page, {});
  s.queue().run();
  EXPECT_EQ(s.agent_at(1).advertised_max(stream), SeqNo{2});
}

TEST(AgentStateTest, FindDataReturnsStoredBytes) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {det_cfg(), 2, 1});
  const PageId page{0, 0};
  const DataName n = s.agent_at(0).send_data(page, {5, 6, 7});
  s.queue().run();
  const Payload* p = s.agent_at(1).find_data(n);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, (Payload{5, 6, 7}));
  EXPECT_EQ(s.agent_at(1).find_data(DataName{0, page, 99}), nullptr);
}

TEST(AgentStateTest, SupplyDataCancelsPendingRequest) {
  harness::SimSession s(topo::make_chain(3), all_nodes(3), {det_cfg(), 3, 1});
  s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      1, 2, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      }));
  const PageId page{0, 0};
  const DataName missing{0, page, 0};
  s.agent_at(0).send_data(page, {1});
  s.agent_at(0).send_data(page, {2});
  // Run only until node 2 has detected the loss (t=2) but not yet
  // requested (its timer fires at t=4; run_until is inclusive).
  s.queue().run_until(3.5);
  ASSERT_TRUE(s.agent_at(2).request_pending(missing));
  s.agent_at(2).supply_data(missing, {1});
  EXPECT_FALSE(s.agent_at(2).request_pending(missing));
  EXPECT_TRUE(s.agent_at(2).has_data(missing));
  EXPECT_EQ(s.agent_at(2).metrics().recoveries, 1u);
  s.queue().run();
  EXPECT_EQ(s.agent_at(2).metrics().requests_sent, 0u);
}

TEST(MemberDirectoryTest, BindLookupUnbind) {
  MemberDirectory dir;
  dir.bind(10, 3);
  dir.bind(20, 5);
  EXPECT_EQ(dir.node_of(10), 3u);
  EXPECT_EQ(dir.source_at(5), std::optional<SourceId>(20));
  EXPECT_EQ(dir.members(), (std::vector<SourceId>{10, 20}));
  dir.unbind(10);
  EXPECT_THROW(dir.node_of(10), std::out_of_range);
  EXPECT_FALSE(dir.source_at(3).has_value());
  dir.unbind(10);  // double unbind is a no-op
}

TEST(MemberDirectoryTest, RebindMovesNode) {
  // A member quits and rejoins from a different host, keeping its
  // persistent Source-ID (Sec. II-C).
  MemberDirectory dir;
  dir.bind(7, 1);
  dir.bind(7, 4);
  EXPECT_EQ(dir.node_of(7), 4u);
}

TEST(AgentLifecycleTest, StopCancelsOutstandingTimers) {
  harness::SimSession s(topo::make_chain(3), all_nodes(3), {det_cfg(), 9, 1});
  s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      1, 2, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      }));
  const PageId page{0, 0};
  s.agent_at(0).send_data(page, {1});
  s.agent_at(0).send_data(page, {2});
  s.queue().run_until(3.5);  // node 2 has a pending request timer
  ASSERT_TRUE(s.agent_at(2).request_pending(DataName{0, page, 0}));
  s.agent_at(2).stop();
  s.queue().run();  // must not fire the cancelled timer or crash
  EXPECT_EQ(s.agent_at(2).metrics().requests_sent, 0u);
}

TEST(AgentDispatchTest, IgnoresPayloadsOfOtherKinds) {
  // The agent classifies a delivery by its kind: a kind-0 payload (not an
  // SRM message), the baseline's NACK (kind 7) and a null payload reach no
  // handler, so no counter moves, no hook runs and nothing is scheduled.
  struct Foreign final : net::Message {
    std::string describe() const override { return "FOREIGN"; }
  };
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {det_cfg(), 3, 1});
  SrmAgent& a = s.agent_at(1);
  int hook_calls = 0;
  SrmAgent::AppHooks hooks;
  hooks.on_data = [&](const DataName&, const Payload&, bool) { ++hook_calls; };
  hooks.on_loss_detected = [&](const DataName&) { ++hook_calls; };
  hooks.on_request_heard = [&](const DataName&, SourceId) { ++hook_calls; };
  hooks.on_session_message = [&](const SessionMessage&,
                                 const net::DeliveryInfo&) { ++hook_calls; };
  hooks.on_page_list = [&](const std::vector<PageId>&) { ++hook_calls; };
  a.set_app_hooks(hooks);

  const auto counters = [](const AgentMetrics& m) {
    return std::vector<std::uint64_t>{
        m.data_sent, m.requests_sent, m.repairs_sent, m.session_sent,
        m.requests_heard, m.repairs_heard, m.losses_detected, m.recoveries,
        m.recovery_abandoned, m.far_names_ignored, m.fec_parity_sent,
        m.fec_reconstructions, m.recovery_delay_seconds.count(),
        m.recovery_delay_rtt.count(), m.request_delay_rtt.count(),
        m.repair_delay_rtt.count(), m.dup_requests_heard,
        m.dup_repairs_heard};
  };
  const auto before = counters(a.metrics());
  const std::size_t events_before = s.queue().pending_events();
  const std::vector<net::MessagePtr> payloads = {
      std::make_shared<Foreign>(),
      std::make_shared<baseline::NackMessage>(DataName{0, PageId{0, 0}, 5}, 0),
      nullptr};
  for (const net::MessagePtr& payload : payloads) {
    net::Packet p;
    p.source = 0;
    p.group = 1;
    p.payload = payload;
    a.on_receive(p, net::DeliveryInfo{a.node(), 1.0, 1, net::kMaxTtl - 1});
  }
  EXPECT_EQ(counters(a.metrics()), before);
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(s.queue().pending_events(), events_before);
  EXPECT_TRUE(a.known_pages().empty());
  EXPECT_FALSE(a.advertised_max(StreamKey{0, PageId{0, 0}}).has_value());
}

}  // namespace
}  // namespace srm
