// Failure-injection stress: random loss applied to EVERY packet type —
// data, requests, repairs, and session messages — across random worlds.
// SRM's design requires only best-effort delivery; with retransmitting
// session reports the invariant "eventual delivery of all data to all
// members" must survive control-plane loss too (the paper's Sec. VII-A:
// "members have to rely on retransmit timer algorithms to retransmit
// requests and repairs as needed").
#include <gtest/gtest.h>

#include <memory>

#include "harness/fault_scenarios.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "trace/trace.h"

namespace srm {
namespace {

struct StressCase {
  std::uint64_t seed;
  double loss_rate;
  std::size_t nodes;
  std::size_t members;
};

class StressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(StressTest, ConvergesUnderOmnidirectionalLoss) {
  const StressCase& p = GetParam();
  util::Rng rng(p.seed);
  auto topo = topo::make_random_tree(p.nodes, rng);
  auto members = harness::choose_members(p.nodes, p.members, rng);

  SrmConfig cfg;
  cfg.timers = paper_fixed_params(p.members);
  cfg.backoff_factor = 3.0;
  trace::VectorSink capture;
  trace::Tracer tracer;
  tracer.set_sink(&capture);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm));
  harness::SimSession session(std::move(topo), members, {cfg, p.seed, 1});
  session.set_tracer(&tracer);

  // Loss on everything (no payload filter): data, requests, repairs,
  // session messages alike.
  session.network().set_drop_policy(std::make_shared<net::RandomDrop>(
      p.loss_rate, p.seed ^ 0x10552));

  const net::NodeId source = members[0];
  const PageId page{static_cast<SourceId>(source), 0};
  session.for_each_agent([&](SrmAgent& a) { a.set_current_page(page); });
  constexpr int kAdus = 10;
  for (int i = 0; i < kAdus; ++i) {
    session.agent_at(source).send_data(page, {static_cast<uint8_t>(i)});
    session.queue().run();
  }
  // Session reporting rounds keep revealing state until everyone converges
  // (session messages themselves may be lost; keep trying, bounded).  The
  // bound is generous: at 30% per-hop loss an isolated member whose nearest
  // holder is several hops away needs many repair attempts — e.g. 6 lossy
  // hops give each repair only a ~12% chance of arriving.
  bool converged = false;
  for (int round = 0; round < 150 && !converged; ++round) {
    session.for_each_agent([&](SrmAgent& a) {
      a.send_session_message();
      session.queue().run();
    });
    converged = true;
    for (net::NodeId m : members) {
      for (SeqNo q = 0; q < kAdus; ++q) {
        if (!session.agent_at(m).has_data(
                DataName{static_cast<SourceId>(source), page, q})) {
          converged = false;
        }
      }
    }
  }
  EXPECT_TRUE(converged) << "seed " << p.seed << " loss " << p.loss_rate;
  // Conformance must hold even under control-plane loss.
  const fault::Conformance c =
      harness::check_conformance(session, capture.events());
  EXPECT_TRUE(c.clean()) << c.report();
}

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> cases;
  std::uint64_t seed = 1000;
  for (double loss : {0.05, 0.15, 0.3}) {
    for (int i = 0; i < 4; ++i) {
      cases.push_back(StressCase{seed++, loss, 60, 20});
    }
  }
  // A couple of denser/larger corners.
  cases.push_back(StressCase{2001, 0.2, 120, 60});
  cases.push_back(StressCase{2002, 0.1, 30, 30});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StressTest, ::testing::ValuesIn(stress_cases()),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_loss" +
             std::to_string(static_cast<int>(info.param.loss_rate * 100)) +
             "_n" + std::to_string(info.param.nodes) + "_g" +
             std::to_string(info.param.members);
    });

}  // namespace
}  // namespace srm
