#include "harness/conformance.h"

#include <gtest/gtest.h>

#include <memory>

#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "net/drop_policy.h"
#include "topo/builders.h"

namespace srm::harness {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

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
  ConformanceChecker checker(session.network(), session.directory());

  const net::NodeId source = members[0];
  RoundSpec round;
  round.source_node = source;
  round.congested = choose_congested_link(session.network().routing(), source,
                                          members, rng);
  round.page = PageId{static_cast<SourceId>(source), 0};
  for (int r = 0; r < 10; ++r) {
    run_loss_round(session, round, r * 2);
  }
  EXPECT_TRUE(checker.clean()) << checker.report();
  EXPECT_GT(checker.data_seen(), 0u);
  EXPECT_GT(checker.requests_seen(), 0u);
  EXPECT_GT(checker.repairs_seen(), 0u);
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
  ConformanceChecker checker(session.network(), session.directory());
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
  EXPECT_TRUE(checker.clean()) << checker.report();
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
  ConformanceChecker checker(session.network(), session.directory());
  const net::NodeId source = members[0];
  RoundSpec round;
  round.source_node = source;
  round.congested = choose_congested_link(session.network().routing(), source,
                                          members, rng);
  round.page = PageId{static_cast<SourceId>(source), 0};
  for (int r = 0; r < 25; ++r) run_loss_round(session, round, r * 2);
  EXPECT_TRUE(checker.clean()) << checker.report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanRunTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ConformanceTest, TwoStepLocalRecoveryIsConformant) {
  SrmConfig cfg;
  cfg.timers = TimerParams{1.0, 0.0, 1.0, 0.0};
  cfg.local_recovery.enabled = true;
  SimSession session(topo::make_chain(8), all_nodes(8), {cfg, 2, 1});
  ConformanceChecker checker(session.network(), session.directory());
  session.agent_at(6).set_request_ttl_policy([](const DataName&) { return 2; });
  RoundSpec spec;
  spec.source_node = 0;
  spec.congested = DirectedLink{5, 6};
  spec.page = PageId{0, 0};
  run_loss_round(session, spec, 0);
  EXPECT_TRUE(checker.clean()) << checker.report();
}

// --- deliberate misbehavior is caught ----------------------------------------

// A minimal hand-rolled sender used to inject rule-breaking traffic.
class RogueSender : public net::PacketSink {
 public:
  RogueSender(net::MulticastNetwork& net, net::NodeId node) : net_(&net) {
    net.attach(node, this);
    net.join(1, node);
    node_ = node;
  }
  void on_receive(const net::Packet&, const net::DeliveryInfo&) override {}
  void send(net::MessagePtr msg) {
    net::Packet p;
    p.group = 1;
    p.payload = std::move(msg);
    net_->multicast(node_, std::move(p));
  }

 private:
  net::MulticastNetwork* net_;
  net::NodeId node_;
};

struct RogueWorld {
  RogueWorld()
      : topo(topo::make_chain(3)),
        network(queue, topo),
        rogue(network, 0),
        listener(network, 2),
        checker(network, directory) {
    directory.bind(0, 0);
    directory.bind(2, 2);
    network.join(1, 2);
  }
  sim::EventQueue queue;
  net::Topology topo;
  net::MulticastNetwork network;
  RogueSender rogue;
  RogueSender listener;
  MemberDirectory directory;
  ConformanceChecker checker;
};

TEST(ConformanceViolationTest, DetectsNonMonotonicSequence) {
  RogueWorld w;
  const PageId page{0, 0};
  auto pay = std::make_shared<const Payload>(Payload{1});
  w.rogue.send(std::make_shared<DataMessage>(DataName{0, page, 5}, pay));
  w.rogue.send(std::make_shared<DataMessage>(DataName{0, page, 3}, pay));
  w.queue.run();
  ASSERT_EQ(w.checker.violations().size(), 1u);
  EXPECT_EQ(w.checker.violations()[0].rule, "sequencing");
}

TEST(ConformanceViolationTest, DetectsMutatedPayload) {
  RogueWorld w;
  const DataName name{0, PageId{0, 0}, 0};
  w.rogue.send(std::make_shared<DataMessage>(
      name, std::make_shared<const Payload>(Payload{1, 2, 3})));
  // Same name, different bytes — the corruption Sec. III-E warns about.
  w.rogue.send(std::make_shared<RepairMessage>(
      name, std::make_shared<const Payload>(Payload{9, 9, 9}), 0, 0, 0.0,
      net::kMaxTtl));
  w.queue.run();
  bool found = false;
  for (const auto& v : w.checker.violations()) {
    if (v.rule == "payload-consistency") found = true;
  }
  EXPECT_TRUE(found) << w.checker.report();
}

TEST(ConformanceViolationTest, DetectsRequestForHeldData) {
  RogueWorld w;
  const DataName name{0, PageId{0, 0}, 0};
  w.rogue.send(std::make_shared<DataMessage>(
      name, std::make_shared<const Payload>(Payload{1})));
  w.rogue.send(std::make_shared<RequestMessage>(name, 0, 1.0, net::kMaxTtl));
  w.queue.run();
  ASSERT_FALSE(w.checker.clean());
  EXPECT_EQ(w.checker.violations()[0].rule, "no-request-for-held-data");
}

TEST(ConformanceViolationTest, DetectsHolddownBreach) {
  RogueWorld w;
  const DataName name{2, PageId{2, 0}, 0};  // data originated by node 2
  auto pay = std::make_shared<const Payload>(Payload{1});
  // Node 0 answers twice in immediate succession; hold-down is
  // 3 * d(0, 2) = 6 seconds.
  w.rogue.send(std::make_shared<RepairMessage>(name, pay, 0, 2, 2.0,
                                               net::kMaxTtl));
  w.rogue.send(std::make_shared<RepairMessage>(name, pay, 0, 2, 2.0,
                                               net::kMaxTtl));
  w.queue.run();
  bool found = false;
  for (const auto& v : w.checker.violations()) {
    if (v.rule == "holddown") found = true;
  }
  EXPECT_TRUE(found) << w.checker.report();
}

TEST(ConformanceViolationTest, DetectsStepOneHolddownBreach) {
  RogueWorld w;
  const DataName name{2, PageId{2, 0}, 0};  // data originated by node 2
  auto pay = std::make_shared<const Payload>(Payload{1});
  // Node 0 answers a scoped request from node 2 with two step-one repairs
  // in immediate succession.  A step-one repair starts the same 6 s
  // hold-down as any other; only the requestor's step two is exempt.
  for (int i = 0; i < 2; ++i) {
    w.rogue.send(std::make_shared<RepairMessage>(
        name, pay, 0, 2, 2.0, net::kMaxTtl, /*local_step_one=*/true));
  }
  w.queue.run();
  bool found = false;
  for (const auto& v : w.checker.violations()) {
    if (v.rule == "holddown") found = true;
  }
  EXPECT_TRUE(found) << w.checker.report();
}

TEST(ConformanceTest, StepTwoRightAfterStepOneIsExempt) {
  RogueWorld w;
  const DataName name{2, PageId{2, 0}, 0};
  auto pay = std::make_shared<const Payload>(Payload{1});
  // Node 0 sends a step-one repair, then at once re-multicasts the ADU as
  // the requestor of a two-step recovery (responder == first requestor).
  w.rogue.send(std::make_shared<RepairMessage>(
      name, pay, 0, 2, 2.0, net::kMaxTtl, /*local_step_one=*/true));
  w.rogue.send(std::make_shared<RepairMessage>(name, pay, 0, 0, 0.0,
                                               net::kMaxTtl));
  w.queue.run();
  EXPECT_TRUE(w.checker.clean()) << w.checker.report();
  EXPECT_EQ(w.checker.repairs_seen(), 2u);
}

TEST(ConformanceViolationTest, DetectsRequestAfterRepair) {
  RogueWorld w;
  const DataName name{0, PageId{0, 0}, 0};
  auto pay = std::make_shared<const Payload>(Payload{1});
  // Node 0 repairs; node 2 receives it, then rogue-requests it anyway.
  w.rogue.send(std::make_shared<RepairMessage>(name, pay, 0, 2, 0.0,
                                               net::kMaxTtl));
  w.queue.run();
  w.listener.send(std::make_shared<RequestMessage>(name, 2, 1.0,
                                                   net::kMaxTtl));
  w.queue.run();
  bool found = false;
  for (const auto& v : w.checker.violations()) {
    if (v.rule == "no-request-after-repair") found = true;
  }
  EXPECT_TRUE(found) << w.checker.report();
}

// Node 3 of a chain receives seq 0, crashes and rejoins with an empty
// store, then requests seq 0 once the source's session message reveals it.
// Returns the checker's violations; `forget` tells the checker of the crash.
std::vector<Violation> rejoin_violations(bool forget) {
  SrmConfig cfg;
  cfg.session.enabled = true;
  SimSession session(topo::make_chain(4), all_nodes(4), {cfg, 3, 1});
  ConformanceChecker checker(session.network(), session.directory());
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
    if (forget) checker.forget(3);
  });
  session.queue().schedule_at(6.0, [&] {
    session.add_member(3).set_current_page(page);
  });
  session.run_until(60.0);
  EXPECT_TRUE(session.agent_at(3).has_data(name));
  EXPECT_GT(session.agent_at(3).metrics().requests_sent, 0u);
  return checker.violations();
}

TEST(ConformanceTest, ForgetClearsADepartedMembersEvidence) {
  const std::vector<Violation> kept = rejoin_violations(false);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].rule, "no-request-for-held-data");
  const std::vector<Violation> forgotten = rejoin_violations(true);
  EXPECT_TRUE(forgotten.empty());
}

TEST(ConformanceTest, DetachRestoresObservers) {
  sim::EventQueue queue;
  auto topo = topo::make_chain(2);
  net::MulticastNetwork network(queue, topo);
  MemberDirectory directory;
  int prior_calls = 0;
  network.set_send_observer([&](net::NodeId, const net::Packet&) {
    ++prior_calls;
  });
  {
    ConformanceChecker checker(network, directory);
    RogueSender rogue(network, 0);
    rogue.send(std::make_shared<DataMessage>(DataName{0, PageId{0, 0}, 0},
                                             nullptr));
    queue.run();
    EXPECT_EQ(prior_calls, 1);  // chained through
    EXPECT_EQ(checker.data_seen(), 1u);
    network.detach(0);
  }
  // After the checker is gone, the original observer still works alone.
  RogueSender rogue2(network, 0);
  rogue2.send(std::make_shared<DataMessage>(DataName{0, PageId{0, 0}, 1},
                                            nullptr));
  queue.run();
  EXPECT_EQ(prior_calls, 2);
  network.detach(0);
}

}  // namespace
}  // namespace srm::harness
