// The six Sec. III-B conformance rules (fault/conformance.h), folded over
// the srm trace of real sessions and over hand-built rogue traffic.
#include "fault/conformance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "harness/fault_scenarios.h"
#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "net/drop_policy.h"
#include "topo/builders.h"
#include "trace/trace.h"

namespace srm::harness {
namespace {

using fault::Violation;

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

// Captures a session's srm and fault events and folds them.
class Capture {
 public:
  explicit Capture(SimSession& session) : session_(&session) {
    tracer_.set_sink(&sink_);
    tracer_.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                     static_cast<std::uint32_t>(trace::Category::kFault));
    session.set_tracer(&tracer_);
  }
  ~Capture() { session_->set_tracer(&trace::Tracer::null()); }

  fault::Conformance fold() {
    return check_conformance(*session_, sink_.events());
  }
  trace::Sink& sink() { return sink_; }
  const std::vector<trace::Event>& events() const { return sink_.events(); }

 private:
  SimSession* session_;
  trace::VectorSink sink_;
  trace::Tracer tracer_;
};

// --- clean protocol runs produce zero violations -----------------------------

class CleanRunTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CleanRunTest, TreeLossRoundsAreConformant) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  auto topo = topo::make_bounded_degree_tree(150, 4);
  auto members = choose_members(150, 30, rng);
  SrmConfig cfg;
  cfg.timers = paper_fixed_params(30);
  cfg.backoff_factor = 3.0;
  SimSession session(std::move(topo), members, {cfg, seed, 1});
  Capture capture(session);

  const net::NodeId source = members[0];
  RoundSpec round;
  round.source_node = source;
  round.congested = choose_congested_link(session.network().routing(), source,
                                          members, rng);
  round.page = PageId{static_cast<SourceId>(source), 0};
  for (int r = 0; r < 10; ++r) {
    run_loss_round(session, round, r * 2);
  }
  const fault::Conformance c = capture.fold();
  EXPECT_TRUE(c.clean()) << c.report();
  EXPECT_GT(c.data_seen, 0u);
  EXPECT_GT(c.requests_seen, 0u);
  EXPECT_GT(c.repairs_seen, 0u);
}

TEST_P(CleanRunTest, RandomLossStreamIsConformant) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed ^ 0xC0FFEE);
  auto topo = topo::make_random_tree(50, rng);
  auto members = choose_members(50, 20, rng);
  SrmConfig cfg;
  cfg.timers = paper_fixed_params(20);
  cfg.backoff_factor = 3.0;
  SimSession session(std::move(topo), members, {cfg, seed, 1});
  Capture capture(session);
  session.network().set_drop_policy(std::make_shared<net::RandomDrop>(
      0.2, seed, [](const net::Packet& p) {
        return dynamic_cast<const DataMessage*>(p.payload.get()) != nullptr;
      }));
  const PageId page{static_cast<SourceId>(members[0]), 0};
  session.for_each_agent([&](SrmAgent& a) { a.set_current_page(page); });
  for (int i = 0; i < 25; ++i) {
    session.agent_at(members[0]).send_data(page, {static_cast<uint8_t>(i)});
    session.queue().run();
  }
  session.for_each_agent([&](SrmAgent& a) {
    a.send_session_message();
    session.queue().run();
  });
  const fault::Conformance c = capture.fold();
  EXPECT_TRUE(c.clean()) << c.report();
}

TEST_P(CleanRunTest, AdaptiveRoundsAreConformant) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed ^ 0xADA);
  auto topo = topo::make_bounded_degree_tree(200, 4);
  auto members = choose_members(200, 25, rng);
  SrmConfig cfg;
  cfg.timers = paper_fixed_params(25);
  cfg.adaptive.enabled = true;
  cfg.backoff_factor = 3.0;
  SimSession session(std::move(topo), members, {cfg, seed, 1});
  Capture capture(session);
  const net::NodeId source = members[0];
  RoundSpec round;
  round.source_node = source;
  round.congested = choose_congested_link(session.network().routing(), source,
                                          members, rng);
  round.page = PageId{static_cast<SourceId>(source), 0};
  for (int r = 0; r < 25; ++r) run_loss_round(session, round, r * 2);
  const fault::Conformance c = capture.fold();
  EXPECT_TRUE(c.clean()) << c.report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanRunTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ConformanceTest, TwoStepLocalRecoveryIsConformant) {
  SrmConfig cfg;
  cfg.timers = TimerParams{1.0, 0.0, 1.0, 0.0};
  cfg.local_recovery.enabled = true;
  SimSession session(topo::make_chain(8), all_nodes(8), {cfg, 2, 1});
  Capture capture(session);
  session.agent_at(6).set_request_ttl_policy([](const DataName&) { return 2; });
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{5, 6};
  spec.page = PageId{0, 0};
  run_loss_round(session, spec, 0);
  const fault::Conformance c = capture.fold();
  EXPECT_TRUE(c.clean()) << c.report();
  // The requestor's re-multicast is marked step two, which is what exempts
  // it from hold-down.
  std::size_t step_twos = 0;
  for (const trace::Event& ev : capture.events()) {
    if (ev.type == trace::EventType::kSrmRepSend && ev.x == 2.0) {
      ++step_twos;
      EXPECT_EQ(ev.actor, 6u);
    }
  }
  EXPECT_EQ(step_twos, 1u);
}

// --- deliberate misbehavior is caught ----------------------------------------

// Rogue traffic as the srm events an agent would emit for it.  Members 0 and
// 2 sit at the ends of a chain of three nodes and 1 s links.
trace::Event rogue(trace::EventType type, std::uint64_t actor,
                   const DataName& name, double x = 0.0, double y = 0.0) {
  trace::Event ev;
  ev.type = type;
  ev.actor = actor;
  ev.a = name.source;
  ev.b = name.page.creator;
  ev.c = name.page.number;
  ev.d = name.seq;
  ev.x = x;
  ev.y = y;
  return ev;
}

fault::Conformance fold_chain(const std::vector<trace::Event>& events) {
  return fault::check_conformance(
      events, [](std::uint64_t member, std::uint64_t source) {
        return std::abs(static_cast<double>(member) -
                        static_cast<double>(source));
      });
}

double digest(const Payload& payload) {
  return payload_digest(std::make_shared<const Payload>(payload));
}

bool has_rule(const fault::Conformance& c, const std::string& rule) {
  for (const Violation& v : c.violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

using trace::EventType;

TEST(ConformanceViolationTest, DetectsNonMonotonicSequence) {
  const PageId page{0, 0};
  const double pay = digest({1});
  const fault::Conformance c = fold_chain(
      {rogue(EventType::kSrmDataSend, 0, DataName{0, page, 5}, 0.0, pay),
       rogue(EventType::kSrmDataSend, 0, DataName{0, page, 3}, 0.0, pay)});
  ASSERT_EQ(c.violations.size(), 1u);
  EXPECT_EQ(c.violations[0].rule, "sequencing");
}

TEST(ConformanceViolationTest, DetectsMutatedPayload) {
  const DataName name{0, PageId{0, 0}, 0};
  // Same name, different bytes — the corruption Sec. III-E warns about.
  const fault::Conformance c = fold_chain(
      {rogue(EventType::kSrmDataSend, 0, name, 0.0, digest({1, 2, 3})),
       rogue(EventType::kSrmRepSend, 0, name, 0.0, digest({9, 9, 9}))});
  EXPECT_TRUE(has_rule(c, "payload-consistency")) << c.report();
}

TEST(ConformanceViolationTest, DetectsRequestForHeldData) {
  const DataName name{0, PageId{0, 0}, 0};
  const fault::Conformance c =
      fold_chain({rogue(EventType::kSrmDataSend, 0, name, 0.0, digest({1})),
                  rogue(EventType::kSrmReqSend, 0, name)});
  ASSERT_FALSE(c.clean());
  EXPECT_EQ(c.violations[0].rule, "no-request-for-held-data");
}

TEST(ConformanceViolationTest, DetectsHolddownBreach) {
  const DataName name{2, PageId{2, 0}, 0};  // data originated by node 2
  // Node 0 answers twice in immediate succession; hold-down is
  // 3 * d(0, 2) = 6 seconds.
  const double pay = digest({1});
  const fault::Conformance c =
      fold_chain({rogue(EventType::kSrmRepSend, 0, name, 0.0, pay),
                  rogue(EventType::kSrmRepSend, 0, name, 0.0, pay)});
  EXPECT_TRUE(has_rule(c, "holddown")) << c.report();
}

TEST(ConformanceViolationTest, DetectsStepOneHolddownBreach) {
  const DataName name{2, PageId{2, 0}, 0};  // data originated by node 2
  // Node 0 answers a scoped request from node 2 with two step-one repairs
  // in immediate succession.  A step-one repair starts the same 6 s
  // hold-down as any other; only the requestor's step two is exempt.
  const double pay = digest({1});
  const fault::Conformance c = fold_chain(
      {rogue(EventType::kSrmRepSend, 0, name, /*step=*/1.0, pay),
       rogue(EventType::kSrmRepSend, 0, name, /*step=*/1.0, pay)});
  EXPECT_TRUE(has_rule(c, "holddown")) << c.report();
}

TEST(ConformanceTest, StepTwoRightAfterStepOneIsExempt) {
  const DataName name{2, PageId{2, 0}, 0};
  // Node 0 sends a step-one repair, then at once re-multicasts the ADU as
  // the requestor of a two-step recovery.
  const double pay = digest({1});
  const fault::Conformance c = fold_chain(
      {rogue(EventType::kSrmRepSend, 0, name, /*step=*/1.0, pay),
       rogue(EventType::kSrmRepSend, 0, name, /*step=*/2.0, pay)});
  EXPECT_TRUE(c.clean()) << c.report();
  EXPECT_EQ(c.repairs_seen, 2u);
}

TEST(ConformanceViolationTest, DetectsRequestAfterRepair) {
  const DataName name{0, PageId{0, 0}, 0};
  // Node 0 repairs; node 2 hears it, then rogue-requests it anyway.
  const fault::Conformance c = fold_chain(
      {rogue(EventType::kSrmRepSend, 0, name, 0.0, digest({1})),
       rogue(EventType::kSrmRepHear, 2, name, /*hops=*/2.0, /*ttl=*/255.0),
       rogue(EventType::kSrmReqSend, 2, name)});
  EXPECT_TRUE(has_rule(c, "no-request-after-repair")) << c.report();
}

TEST(ConformanceViolationTest, DetectsScopeOverrun) {
  const DataName name{0, PageId{0, 0}, 0};
  // Heard two hops from its sender: within a TTL of 2, beyond a TTL of 1.
  const fault::Conformance c = fold_chain(
      {rogue(EventType::kSrmReqHear, 0, name, /*hops=*/2.0, /*ttl=*/2.0),
       rogue(EventType::kSrmReqHear, 0, name, /*hops=*/2.0, /*ttl=*/1.0),
       rogue(EventType::kSrmRepHear, 2, name, /*hops=*/2.0, /*ttl=*/1.0)});
  ASSERT_EQ(c.violations.size(), 2u) << c.report();
  EXPECT_EQ(c.violations[0].rule, "scoping");
  EXPECT_EQ(c.violations[1].rule, "scoping");
}

// Node 3 of a chain receives seq 0, crashes and rejoins with an empty
// store, then requests seq 0 once the source's session message reveals it.
// Returns the fold's violations; with `crash_traced` the trace carries the
// member_crash event, which makes the fold forget node 3's evidence.
std::vector<Violation> rejoin_violations(bool crash_traced) {
  SrmConfig cfg;
  cfg.session.enabled = true;
  SimSession session(topo::make_chain(4), all_nodes(4), {cfg, 3, 1});
  Capture capture(session);
  // Session messages report the page a member is viewing.
  const PageId page{0, 0};
  session.for_each_agent([&](SrmAgent& a) { a.set_current_page(page); });
  DataName name;
  session.queue().schedule_at(1.0, [&] {
    name = session.agent_at(0).send_data(page, Payload{7});
  });
  session.queue().schedule_at(5.0, [&] {
    EXPECT_TRUE(session.agent_at(3).has_data(name));
    session.remove_member(3, /*graceful=*/false);
    if (crash_traced) {
      trace::Event crash;
      crash.type = trace::EventType::kFaultCrash;
      crash.t = session.queue().now();
      crash.actor = 3;
      capture.sink().on_event(crash);
    }
  });
  session.queue().schedule_at(6.0, [&] {
    session.add_member(3).set_current_page(page);
  });
  session.run_until(60.0);
  EXPECT_TRUE(session.agent_at(3).has_data(name));
  EXPECT_GT(session.agent_at(3).metrics().requests_sent, 0u);
  return capture.fold().violations;
}

TEST(ConformanceTest, ForgetClearsADepartedMembersEvidence) {
  const std::vector<Violation> kept = rejoin_violations(false);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].rule, "no-request-for-held-data");
  const std::vector<Violation> forgotten = rejoin_violations(true);
  EXPECT_TRUE(forgotten.empty());
}

}  // namespace
}  // namespace srm::harness
