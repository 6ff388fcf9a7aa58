// The fault subsystem's acceptance scenario: a random tree with N=100 nodes
// and G=40 members, adaptive timers, a partition at t=30 healed at t=90,
// and six loss rounds through it (recovery deadline 200 s).  Shared by the
// sequential-kernel acceptance test and the parallel-kernel tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "harness/fault_scenarios.h"
#include "harness/run.h"
#include "harness/scenario.h"
#include "topo/builders.h"

namespace srm {

inline harness::Scenario partition_heal_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  harness::Scenario scenario;
  scenario.topo = topo::make_random_tree(100, rng);
  std::vector<net::NodeId> all(100);
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<net::NodeId>(i);
  }
  rng.shuffle(all);
  scenario.members.assign(all.begin(), all.begin() + 40);
  std::sort(scenario.members.begin(), scenario.members.end());
  const net::NodeId source =
      scenario.members[rng.index(scenario.members.size())];

  scenario.faults = harness::partition_heal_plan(
      scenario.topo, source, /*t_down=*/30.0, /*t_heal=*/90.0, rng);
  scenario.fault_deadline = 200.0;

  scenario.srm.timers = paper_fixed_params(scenario.members.size());
  scenario.srm.backoff_factor = 3.0;
  scenario.srm.adaptive.enabled = true;
  scenario.seed = seed;
  net::Routing routing(scenario.topo);
  scenario.round.source_node = source;
  scenario.round.congested =
      harness::choose_congested_link(routing, source, scenario.members, rng);
  scenario.round.page = PageId{static_cast<SourceId>(source), 0};
  scenario.rounds = 6;
  return scenario;
}

}  // namespace srm
