// Backend conformance: the scripted-loss specs must produce the same
// per-loss recovery story on the sim and UDP backends (modulo wall-clock
// timing), from the same timer draws, both traces must keep the six
// Sec. III-B rules, and the sim-side stories must have the structure each
// scenario was built to exercise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "transport/udp_transport.h"
#include "workload/workload.h"

namespace srm::workload {
namespace {

// The sim run of the registered scenario `name`.
WorkloadResult run_sim(const std::string& name) {
  for (const auto& spec : conformance_specs()) {
    if (spec.name == name) return run_workload_sim(spec);
  }
  ADD_FAILURE() << "scenario not registered: " << name;
  return {};
}

// Every story closed, none abandoned.
bool all_recovered(const WorkloadResult& result) {
  return !result.stories.empty() &&
         std::all_of(result.stories.begin(), result.stories.end(),
                     [](const trace::RecoveryStory& story) {
                       return story.recoveries >= story.detections &&
                              story.abandoned == 0;
                     });
}

TEST(Conformance, RegistersAtLeastThreeScenarios) {
  EXPECT_GE(conformance_specs().size(), 3u);
  for (const auto& spec : conformance_specs()) {  // none is a workload name
    EXPECT_THROW(make_workload(spec.name, 4, 1), std::invalid_argument);
  }
}

TEST(Conformance, SimRunsAreDeterministic) {
  for (const auto& spec : conformance_specs()) {
    const auto a = run_workload_sim(spec);
    const auto b = run_workload_sim(spec);
    EXPECT_EQ(diff_runs(a, b), "") << spec.name;
    EXPECT_EQ(a.fingerprint, b.fingerprint) << spec.name;
  }
}

TEST(Conformance, CleanLossStory) {
  const auto result = run_sim("clean-loss");
  ASSERT_EQ(result.stories.size(), 1u);
  const auto& story = result.stories[0];
  EXPECT_EQ(story.detections, 1u);
  EXPECT_EQ(story.requests_sent, 1u);
  EXPECT_EQ(story.request_backoffs, 0u);
  EXPECT_EQ(story.repairs_sent, 1u);
  EXPECT_EQ(story.recoveries, 1u);
  EXPECT_EQ(story.abandoned, 0u);
  // Member 1 detects and the source, member 0, answers: Source-IDs are
  // ordinal + 1.
  EXPECT_EQ(story.first_detector, 2u);
  EXPECT_EQ(story.first_responder, 1u);
  EXPECT_TRUE(all_recovered(result));
  EXPECT_EQ(result.scripted_drops, 1u);
  EXPECT_TRUE(result.conformance.clean()) << result.conformance.report();
  EXPECT_EQ(result.conformance.data_seen, 2u);  // the fold saw the run
  EXPECT_EQ(result.conformance.repairs_seen, 1u);
}

TEST(Conformance, LostRequestForcesBackoff) {
  const auto result = run_sim("lost-request");
  ASSERT_EQ(result.stories.size(), 1u);
  const auto& story = result.stories[0];
  // The first request was eaten, so the requestor's own timer refired and
  // sent again (own re-sends are req_send milestones; kSrmReqBackoff is
  // reserved for suppression-heard requests).
  EXPECT_GE(story.requests_sent, 2u);
  std::size_t req_sends = 0;
  for (const trace::StoryEntry& entry : story.entries) {
    if (entry.type == trace::EventType::kSrmReqSend) ++req_sends;
  }
  EXPECT_GE(req_sends, 2u);
  EXPECT_EQ(story.recoveries, 1u);
  EXPECT_TRUE(all_recovered(result));
}

TEST(Conformance, LostRepairDrawsSecondRepair) {
  const auto result = run_sim("lost-repair");
  ASSERT_EQ(result.stories.size(), 1u);
  const auto& story = result.stories[0];
  EXPECT_GE(story.repairs_sent, 2u);  // first repair was eaten
  EXPECT_EQ(story.recoveries, 1u);
  EXPECT_TRUE(all_recovered(result));
}

TEST(Conformance, SuppressionScenarioRecovers) {
  const auto result = run_sim("repair-suppression");
  ASSERT_EQ(result.stories.size(), 1u);
  const auto& story = result.stories[0];
  // Two holders race; exactly one repair reaches the wire and the loser is
  // either suppressed pre-send or held down.
  EXPECT_EQ(story.detections, 1u);
  EXPECT_EQ(story.recoveries, 1u);
  EXPECT_GE(story.repairs_sent, 1u);
  EXPECT_TRUE(all_recovered(result));
}

// Each member's request- and repair-timer delays, in the order it drew
// them, keyed by Source-ID.
std::map<std::uint64_t, std::vector<double>> timer_draws(
    const WorkloadResult& result) {
  std::map<std::uint64_t, std::vector<double>> draws;
  for (const trace::RecoveryStory& story : result.stories) {
    for (const trace::StoryEntry& entry : story.entries) {
      if (entry.type == trace::EventType::kSrmReqTimerSet ||
          entry.type == trace::EventType::kSrmRepTimerSet) {
        draws[entry.actor].push_back(entry.x);
      }
    }
  }
  return draws;
}

// The acceptance bar: per-loss recovery stories match across backends on
// every registered scenario.  One scenario per TEST so a flaky environment
// pinpoints which script diverged.
class CrossBackend : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrossBackend, StoriesMatch) {
  if (!transport::UdpTransport::available()) {
    GTEST_SKIP() << "loopback multicast unavailable";
  }
  const auto all = conformance_specs();
  ASSERT_LT(GetParam(), all.size());
  const WorkloadSpec& spec = all[GetParam()];
  const auto sim_result = run_workload_sim(spec);
  const auto udp_result = run_workload_udp(spec);
  EXPECT_EQ(diff_runs(sim_result, udp_result), "") << "scenario: " << spec.name;
  EXPECT_TRUE(all_recovered(sim_result)) << spec.name;
  EXPECT_TRUE(all_recovered(udp_result)) << spec.name;
  EXPECT_TRUE(sim_result.conformance.clean())
      << spec.name << ": " << sim_result.conformance.report();
  EXPECT_TRUE(udp_result.conformance.clean())
      << spec.name << ": " << udp_result.conformance.report();
  EXPECT_GT(udp_result.conformance.repairs_seen, 0u) << spec.name;
}

// What makes the comparison fair: every member draws the same timers, bit
// for bit, on both backends.  Members are compared one by one, because the
// suppression race's two holders set their timers at one instant, in
// either order.
TEST_P(CrossBackend, DrawsTheSameTimers) {
  const auto all = conformance_specs();
  ASSERT_LT(GetParam(), all.size());
  const WorkloadSpec& spec = all[GetParam()];
  const auto sim_draws = timer_draws(run_workload_sim(spec));
  EXPECT_FALSE(sim_draws.empty()) << spec.name;
  if (spec.name == "repair-suppression") {
    // Holders 1 (the source) and 3 each draw one repair timer.  The race is
    // decided by the draws alone when the earlier repair reaches the later
    // holder (two star links) before its timer ends.
    ASSERT_EQ(sim_draws.at(1).size(), 1u);
    ASSERT_EQ(sim_draws.at(3).size(), 1u);
    EXPECT_GT(std::abs(sim_draws.at(1)[0] - sim_draws.at(3)[0]),
              2 * kStarLinkDelay);
  }
  if (!transport::UdpTransport::available()) {
    GTEST_SKIP() << "loopback multicast unavailable";
  }
  EXPECT_EQ(timer_draws(run_workload_udp(spec)), sim_draws) << spec.name;
}

std::string scenario_test_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* const kNames[] = {"clean_loss", "lost_request",
                                       "lost_repair", "repair_suppression"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, CrossBackend,
                         ::testing::Range<std::size_t>(0, 4),
                         scenario_test_name);

}  // namespace
}  // namespace srm::workload
