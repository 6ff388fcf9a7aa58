// harness::run builds every layer a scenario names on whichever kernel it is
// given, and harness::diff reports each statistic on which two results of
// one scenario disagree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/run.h"
#include "harness/scenario.h"
#include "topo/builders.h"

namespace srm::harness {
namespace {

// Coded repair on a 30-node tree with 15 members, through a Gilbert-Elliott
// burst epoch from t=30 to t=150: the parity ADUs rebuild the losses.
Scenario coded_burst_scenario() {
  util::Rng rng(14);
  Scenario scenario;
  scenario.topo = topo::make_bounded_degree_tree(30, 4);
  scenario.members = choose_members(30, 15, rng);
  const net::NodeId source =
      scenario.members[rng.index(scenario.members.size())];
  net::Routing routing(scenario.topo);
  scenario.round.source_node = source;
  scenario.round.congested =
      choose_congested_link(routing, source, scenario.members, rng);
  scenario.round.page = PageId{static_cast<SourceId>(source), 0};
  scenario.srm.timers = paper_fixed_params(scenario.members.size());
  scenario.seed = 14;
  scenario.kernel_regions = 4;
  scenario.rounds = 6;
  scenario.coded_repair = true;
  scenario.faults.burst_on(30.0, net::GilbertElliottDrop::Params{});
  scenario.faults.burst_off(150.0);
  scenario.fault_deadline = 150.0;
  return scenario;
}

bool holds(const std::vector<trace::Event>& capture, trace::EventType type) {
  return std::any_of(capture.begin(), capture.end(),
                     [type](const trace::Event& e) { return e.type == type; });
}

TEST(PdesScenarioTest, CodedRepairUnderBurstMatchesAcrossKernels) {
  const Scenario scenario = coded_burst_scenario();
  const ScenarioResult seq = run(scenario, 0);
  const ScenarioResult p1 = run(scenario, 1);
  const ScenarioResult p2 = run(scenario, 2);
  for (const ScenarioResult* r : {&seq, &p1, &p2}) {
    EXPECT_TRUE(holds(r->capture, trace::EventType::kSrmFecReconstruct));
    ASSERT_TRUE(r->recovery.has_value());
    EXPECT_TRUE(r->recovery->passed) << r->recovery->summary();
  }
  EXPECT_EQ(seq.kernel_regions, 1u);
  EXPECT_EQ(p1.kernel_regions, 4u);
  EXPECT_EQ(diff(seq, p1), std::vector<std::string>{});
  EXPECT_EQ(diff(seq, p2), std::vector<std::string>{});
  EXPECT_EQ(p1.capture, p2.capture);
}

TEST(ScenarioDiffTest, NamesEachDisagreement) {
  ScenarioResult a = run(coded_burst_scenario(), 0);
  ASSERT_EQ(a.rounds.size(), 6u);
  a.rounds[2].result.repair_times = {0.5};
  EXPECT_TRUE(diff(a, a).empty());

  ScenarioResult b = a;
  b.rounds[1].result.requests += 1;
  b.rounds[2].result.repair_times.push_back(1.0);
  b.rounds[3].disruption = "the source crashed";
  b.totals.drops += 1;
  b.recovery->passed = !b.recovery->passed;
  b.fault_totals.burst_epochs += 1;
  b.hierarchy = HierarchyState{};
  const std::vector<std::string> lines = diff(a, b);
  const std::vector<std::string> want = {
      "round 2 requests: " + std::to_string(a.rounds[1].result.requests) +
          " vs " + std::to_string(b.rounds[1].result.requests),
      "round 3 repair times: [0.5] vs [0.5 1]",
      "round 4 disruption:  vs the source crashed",
      "network drops: " + std::to_string(a.totals.drops) + " vs " +
          std::to_string(b.totals.drops),
      "checker verdict: 1 vs 0",
      "fault burst epochs: 1 vs 2",
      "hierarchy: 0 vs 1",
  };
  EXPECT_EQ(lines, want);

  // The sends log is the sequential kernel's alone.
  ScenarioResult c = a;
  c.rounds[0].sends = "  t=0 node 1 DATA\n";
  EXPECT_TRUE(diff(a, c).empty());
}

}  // namespace
}  // namespace srm::harness
