// Same FaultPlan + seed must give bit-identical traces: across repeated
// runs in one process, and across ReplicationRunner thread counts (trial
// construction is serial; only execution is fanned out).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/fault_scenarios.h"
#include "harness/replication.h"
#include "harness/run.h"
#include "harness/scenario.h"
#include "topo/builders.h"

namespace srm {
namespace {

// One full fault scenario: random tree, partition/heal + crash/rejoin churn,
// four loss-recovery rounds.  Returns every captured trace event.
std::vector<trace::Event> run_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  harness::Scenario scenario;
  scenario.topo = topo::make_random_tree(40, rng);
  for (net::NodeId n = 0; n < 40; n += 3) scenario.members.push_back(n);
  const net::NodeId source =
      scenario.members[rng.index(scenario.members.size())];

  scenario.faults =
      harness::partition_heal_plan(scenario.topo, source, 20.0, 60.0, rng);
  scenario.faults.merge(harness::churn_plan(
      scenario.members, source, /*cycles=*/3, /*t_begin=*/10.0,
      /*t_end=*/150.0, /*downtime=*/30.0, /*crash=*/true, rng));

  scenario.srm.backoff_factor = 3.0;
  scenario.srm.adaptive.enabled = true;
  scenario.seed = seed;
  net::Routing routing(scenario.topo);
  scenario.round.source_node = source;
  scenario.round.congested =
      harness::choose_congested_link(routing, source, scenario.members, rng);
  scenario.round.page = PageId{static_cast<SourceId>(source), 0};
  scenario.rounds = 4;
  return harness::run(scenario, 0).capture;
}

TEST(FaultDeterminismTest, SameSeedSameTrace) {
  const auto first = run_scenario(1234);
  const auto second = run_scenario(1234);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FaultDeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(run_scenario(1), run_scenario(2));
}

TEST(FaultDeterminismTest, TraceIdenticalAcrossThreadCounts) {
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};
  const auto run_batch = [&](unsigned threads) {
    const harness::ReplicationRunner runner(threads);
    return runner.map<std::vector<trace::Event>>(
        seeds.size(),
        [&seeds](std::size_t i) { return run_scenario(seeds[i]); });
  };
  const auto serial = run_batch(1);
  const auto parallel = run_batch(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

}  // namespace
}  // namespace srm
