// Workload suite: every generator is deterministic from its seed, every
// workload passes the recovery invariant checker and the six Sec. III-B
// rules under the sim backend, and the scripts actually exercise what their
// names promise.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <set>

namespace srm::workload {
namespace {

TEST(WorkloadGenerators, RegistryCoversAllFour) {
  const auto names = workload_names();
  ASSERT_EQ(names.size(), 4u);
  for (const auto& name : names) {
    const WorkloadSpec spec = make_workload(name, 8, 1);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.actions.empty()) << name;
    // Actions are time-sorted.
    for (std::size_t i = 1; i < spec.actions.size(); ++i) {
      EXPECT_LE(spec.actions[i - 1].at, spec.actions[i].at) << name;
    }
  }
  EXPECT_THROW(make_workload("nope", 8, 1), std::invalid_argument);
}

TEST(WorkloadGenerators, FlashCrowdJoinsLate) {
  const WorkloadSpec spec = make_flash_crowd(12, 3);
  std::size_t joins = 0, probes = 0;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kJoin) {
      ++joins;
      EXPECT_GE(a.at, 3.0);  // the crowd arrives after the history exists
    }
    if (a.kind == Action::Kind::kPageProbe) ++probes;
  }
  EXPECT_EQ(joins, spec.peak_members - spec.initial_members);
  EXPECT_EQ(probes, joins);
}

TEST(WorkloadGenerators, ConferenceRotatesSpeakers) {
  const WorkloadSpec spec = make_conference(10, 3);
  std::set<std::uint32_t> speakers;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kSend) speakers.insert(a.member);
  }
  EXPECT_GE(speakers.size(), 2u);
}

TEST(WorkloadGenerators, DiurnalChurns) {
  const WorkloadSpec spec = make_diurnal(12, 3);
  std::size_t joins = 0, departs = 0;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kJoin) ++joins;
    if (a.kind == Action::Kind::kLeave || a.kind == Action::Kind::kCrash) {
      ++departs;
    }
  }
  EXPECT_EQ(joins, spec.peak_members - spec.initial_members);
  EXPECT_EQ(departs, joins);
}

TEST(WorkloadGenerators, RepairStormDropsCorrelated) {
  const WorkloadSpec spec = make_repair_storm(11, 3);
  std::size_t drops = 0;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kDropOnce) ++drops;
  }
  // 6 bursts x 60% of 10 receivers.
  EXPECT_EQ(drops, 6u * 6u);
}

class WorkloadSim : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSim, PassesCheckerAndIsDeterministic) {
  const WorkloadSpec spec = make_workload(GetParam(), /*members=*/10,
                                          /*seed=*/42);
  const WorkloadResult a = run_workload_sim(spec);
  EXPECT_TRUE(a.passed) << a.checker.summary();
  EXPECT_TRUE(a.conformance.clean()) << a.conformance.report();
  EXPECT_GT(a.data_sent, 0u);
  EXPECT_GT(a.losses, 0u) << "workload produced no recovery work";
  EXPECT_GT(a.recoveries, 0u);

  // Same spec, fresh world: bit-identical story digest.
  const WorkloadResult b = run_workload_sim(spec);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.scripted_drops, b.scripted_drops);
  EXPECT_DOUBLE_EQ(a.recovery_p99, b.recovery_p99);

  // A different seed reshuffles the script.
  const WorkloadResult c =
      run_workload_sim(make_workload(GetParam(), 10, 43));
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSim,
                         ::testing::Values("flash-crowd", "conference",
                                           "diurnal", "repair-storm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace srm::workload
