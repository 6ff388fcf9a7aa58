// Property tests over the timer-parameter space: whatever (C1, C2, D1, D2)
// and backoff factor are configured, the protocol invariants must hold on a
// loss-recovery round:
//   - every affected member recovers,
//   - at least one request and one repair are sent,
//   - request/repair counts are bounded by the obvious worst cases,
//   - unaffected members send nothing,
//   - the run is deterministic given the seed.
#include <gtest/gtest.h>

#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "topo/builders.h"

namespace srm {
namespace {

struct SweepCase {
  double c1, c2, d1, d2;
  double backoff;
  bool ignore_backoff;
};

class TimerSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TimerSweepTest, InvariantsHoldOnTreeRound) {
  const SweepCase& p = GetParam();
  util::Rng rng(101);
  auto topo = topo::make_bounded_degree_tree(120, 4);
  auto members = harness::choose_members(120, 30, rng);
  SrmConfig cfg;
  cfg.timers = TimerParams{p.c1, p.c2, p.d1, p.d2};
  cfg.backoff_factor = p.backoff;
  cfg.ignore_backoff_heuristic = p.ignore_backoff;
  harness::SimSession session(std::move(topo), members, {cfg, 101, 1});

  const net::NodeId source = members[0];
  const auto congested = harness::choose_congested_link(
      session.network().routing(), source, members, rng);
  harness::RoundSpec round;
  round.source_node = source;
  round.congested = congested;
  round.page = PageId{static_cast<SourceId>(source), 0};
  const auto r = harness::run_loss_round(session, round, 0);

  EXPECT_GT(r.affected, 0u);
  EXPECT_EQ(r.recovered, r.affected);
  EXPECT_GE(r.requests, 1u);
  EXPECT_GE(r.repairs, 1u);
  // Worst case: every affected member requests on every backoff iteration,
  // every member answers each request once.
  const std::size_t max_requests =
      r.affected * static_cast<std::size_t>(SrmAgent::kMaxRequestBackoffs + 1);
  EXPECT_LE(r.requests, max_requests);
  EXPECT_LE(r.repairs, members.size() * r.requests);
  // No member abandoned recovery.
  for (net::NodeId m : members) {
    EXPECT_EQ(session.agent_at(m).metrics().recovery_abandoned, 0u) << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, TimerSweepTest,
    ::testing::Values(
        // The paper's fixed settings and neighbors.
        SweepCase{2.0, 2.0, 1.5, 1.5, 2.0, true},
        SweepCase{2.0, 2.0, 1.5, 1.5, 3.0, true},
        SweepCase{2.0, 2.0, 1.5, 1.5, 3.0, false},
        // Deterministic corner (zero widths).
        SweepCase{1.0, 0.0, 1.0, 0.0, 3.0, true},
        // Zero starts (pure randomization).
        SweepCase{0.0, 2.0, 0.0, 2.0, 3.0, true},
        SweepCase{0.0, 50.0, 0.0, 50.0, 3.0, true},
        // Wide spreads.
        SweepCase{2.0, 100.0, 2.0, 100.0, 2.0, true},
        SweepCase{0.5, 1.0, 0.5, 1.0, 3.0, true},
        // Large starts (slow but must still work).
        SweepCase{10.0, 5.0, 10.0, 5.0, 2.0, true},
        // Tiny everything: maximal duplication, still correct.
        SweepCase{0.1, 0.1, 0.1, 0.1, 3.0, true}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const auto& p = info.param;
      auto f = [](double v) {
        std::string s = std::to_string(v);
        for (auto& c : s) {
          if (c == '.' || c == '-') c = '_';
        }
        return s.substr(0, 4);
      };
      return "C" + f(p.c1) + "_" + f(p.c2) + "_D" + f(p.d1) + "_" + f(p.d2) +
             "_b" + f(p.backoff) + (p.ignore_backoff ? "_ib" : "_nib");
    });

// Determinism across re-runs for a sample of the grid.
TEST(TimerSweepDeterminismTest, IdenticalSeedsIdenticalRounds) {
  for (const double c2 : {0.0, 2.0, 20.0}) {
    auto run = [&](std::uint64_t seed) {
      util::Rng rng(seed);
      auto topo = topo::make_bounded_degree_tree(80, 4);
      auto members = harness::choose_members(80, 20, rng);
      SrmConfig cfg;
      cfg.timers = TimerParams{2.0, c2, 1.0, 1.0};
      harness::SimSession session(std::move(topo), members, {cfg, seed, 1});
      const net::NodeId source = members[0];
      harness::RoundSpec round;
      round.source_node = source;
      round.congested = harness::choose_congested_link(
          session.network().routing(), source, members, rng);
      round.page = PageId{static_cast<SourceId>(source), 0};
      return harness::run_loss_round(session, round, 0);
    };
    const auto a = run(500), b = run(500);
    EXPECT_EQ(a.requests, b.requests) << c2;
    EXPECT_EQ(a.repairs, b.repairs) << c2;
    EXPECT_DOUBLE_EQ(a.max_delay_seconds, b.max_delay_seconds) << c2;
    EXPECT_EQ(a.request_times, b.request_times) << c2;
  }
}

}  // namespace
}  // namespace srm
