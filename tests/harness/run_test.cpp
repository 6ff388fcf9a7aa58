// harness::run builds every layer a scenario names on whichever kernel it is
// given, harness::diff reports each statistic on which two results of one
// scenario disagree, and harness::compare_kernels gives --pdes-verify's
// verdict.  The delivery chains run their receivers inline unless the
// event queue traces `sim`; both paths must run the same simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "harness/run.h"
#include "harness/scenario.h"
#include "topo/builders.h"
#include "trace/trace.h"

namespace srm::harness {
namespace {

// The loss rounds' source member and congested link, drawn as srmsim does.
void choose_round(Scenario& scenario, util::Rng& rng) {
  const net::NodeId source =
      scenario.members[rng.index(scenario.members.size())];
  net::Routing routing(scenario.topo);
  scenario.round.source_node = source;
  scenario.round.congested =
      choose_congested_link(routing, source, scenario.members, rng);
  scenario.round.page = PageId{static_cast<SourceId>(source), 0};
}

// Coded repair on a 30-node tree with 15 members, through a Gilbert-Elliott
// burst epoch from t=30 to t=150: the parity ADUs rebuild the losses.
Scenario coded_burst_scenario() {
  util::Rng rng(14);
  Scenario scenario;
  scenario.topo = topo::make_bounded_degree_tree(30, 4);
  scenario.members = choose_members(30, 15, rng);
  choose_round(scenario, rng);
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

// A 200-node tree, 60 members and five loss rounds, each dropping its
// packet on the congested link, through a Gilbert-Elliott burst epoch.
Scenario burst_scenario() {
  util::Rng rng(7);
  Scenario scenario;
  scenario.topo = topo::make_bounded_degree_tree(200, 4);
  scenario.members = choose_members(200, 60, rng);
  choose_round(scenario, rng);
  scenario.srm.timers = paper_fixed_params(scenario.members.size());
  scenario.seed = 7;
  scenario.kernel_regions = 4;
  scenario.rounds = 5;
  scenario.faults.burst_on(20.0, net::GilbertElliottDrop::Params{});
  scenario.faults.burst_off(120.0);
  scenario.fault_deadline = 150.0;
  return scenario;
}

// Every workstation of a tree of 20 LANs, with hierarchical sessions.
Scenario lans_hierarchy_scenario() {
  util::Rng rng(5);
  topo::TreeOfLans lans = topo::make_tree_of_lans(20, 3, 5);
  Scenario scenario;
  scenario.topo = std::move(lans.topo);
  scenario.members = std::move(lans.workstations);
  std::sort(scenario.members.begin(), scenario.members.end());
  choose_round(scenario, rng);
  scenario.srm.timers = paper_fixed_params(scenario.members.size());
  scenario.srm.hierarchy.enabled = true;
  scenario.srm.hierarchy.local_ttl = 2;
  scenario.seed = 5;
  scenario.kernel_regions = 4;
  scenario.rounds = 2;
  return scenario;
}

// CI's membership-churn plan on a 120-node random tree with 50 members.
Scenario churn_scenario() {
  util::Rng rng(4);
  Scenario scenario;
  scenario.topo = topo::make_random_tree(120, rng);
  scenario.members = choose_members(120, 50, rng);
  choose_round(scenario, rng);
  scenario.srm.timers = paper_fixed_params(scenario.members.size());
  scenario.seed = 4;
  scenario.kernel_regions = 4;
  scenario.rounds = 8;
  std::istringstream plan(
      "crash 15.0 5\nrejoin 40.0 5\nleave 20.0 7\njoin 45.0 7\n");
  scenario.faults = fault::FaultPlan::parse(plan);
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

TEST(PdesCompareKernelsTest, NamesEachDifference) {
  const Scenario scenario = burst_scenario();
  const ScenarioResult seq = run(scenario, 0);
  const ScenarioResult p1 = run(scenario, 1);
  const ScenarioResult p2 = run(scenario, 2);
  EXPECT_EQ(compare_kernels(seq, p1, p2, 2), std::vector<std::string>{});

  const std::size_t n = p2.capture.size();
  ASSERT_GT(n, 100u);
  const std::string of = " of " + std::to_string(n) + " vs ";
  ScenarioResult changed = p2;
  changed.capture[42].t += 1.0;
  EXPECT_EQ(compare_kernels(seq, p1, changed, 2),
            std::vector<std::string>{"parallel traces diverge at event 42" +
                                     of + std::to_string(n)});
  ScenarioResult shorter = p2;
  shorter.capture.pop_back();
  EXPECT_EQ(compare_kernels(seq, p1, shorter, 2),
            std::vector<std::string>{"parallel traces diverge at event " +
                                     std::to_string(n - 1) + of +
                                     std::to_string(n - 1)});
  ScenarioResult counted = p1;
  counted.totals.deliveries += 1;
  EXPECT_EQ(compare_kernels(seq, counted, p2, 2),
            std::vector<std::string>{
                "sequential vs 1-thread network deliveries: " +
                std::to_string(p1.totals.deliveries) + " vs " +
                std::to_string(counted.totals.deliveries)});
}

// One run's result and the records its trace sink received, `sim` left out.
struct TracedRun {
  ScenarioResult result;
  std::vector<trace::Event> records;
};

TracedRun run_traced(Scenario scenario, unsigned kernel_threads,
                     std::uint32_t mask) {
  trace::VectorSink sink;
  scenario.trace_sink = &sink;
  scenario.trace_mask = mask;
  TracedRun out{run(scenario, kernel_threads), {}};
  for (const trace::Event& e : sink.events()) {
    if (trace::category_of(e.type) != trace::Category::kSim) {
      out.records.push_back(e);
    }
  }
  return out;
}

// Tracing `sim` makes every delivery a queued event; without it a chain's
// receivers run inline.  The two must agree record for record, on both
// kernels.
TEST(PdesInlineDeliveryTest, SameRunWithAndWithoutSimTracing) {
  const std::uint32_t no_sim =
      trace::kMaskAll & ~static_cast<std::uint32_t>(trace::Category::kSim);
  const std::pair<const char*, Scenario> scenarios[] = {
      {"burst", burst_scenario()},
      {"lans hierarchy", lans_hierarchy_scenario()},
      {"churn", churn_scenario()}};
  for (const auto& [name, scenario] : scenarios) {
    for (const unsigned threads : {0u, 2u}) {
      SCOPED_TRACE(std::string(name) + ", " + std::to_string(threads) +
                   " kernel threads");
      const TracedRun queued = run_traced(scenario, threads, trace::kMaskAll);
      const TracedRun inlined = run_traced(scenario, threads, no_sim);
      EXPECT_TRUE(holds(inlined.records, trace::EventType::kNetDeliver));
      const auto [q, i] =
          std::mismatch(queued.records.begin(), queued.records.end(),
                        inlined.records.begin(), inlined.records.end());
      EXPECT_TRUE(q == queued.records.end() && i == inlined.records.end())
          << "records diverge at " << (q - queued.records.begin()) << " of "
          << queued.records.size() << " vs " << inlined.records.size();
      EXPECT_EQ(diff(queued.result, inlined.result),
                std::vector<std::string>{});
      EXPECT_TRUE(queued.result.capture == inlined.result.capture);
    }
  }
}

}  // namespace
}  // namespace srm::harness
