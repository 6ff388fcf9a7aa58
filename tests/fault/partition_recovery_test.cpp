// Acceptance scenario for the fault subsystem (ISSUE 4): on a random tree
// with N=100 nodes and G=40 members, a partition/heal round trip must leave
// zero unrecovered ADUs at surviving members — the paper's Sec. III-D claim
// that members "continue to send data in the connected components" and the
// repair machinery redistributes everything after the heal.
#include <gtest/gtest.h>

#include <cstdint>

#include "partition_scenario.h"

namespace srm {
namespace {

class PartitionRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PartitionRecoveryTest, ZeroUnrecoveredAtSurvivingMembers) {
  const fault::CheckerReport report =
      *harness::run(partition_heal_scenario(GetParam()), 0).recovery;
  EXPECT_TRUE(report.passed) << report.summary();
  EXPECT_TRUE(report.unrecovered.empty()) << report.summary();
  EXPECT_EQ(report.storm_violations, 0u);
  // The scenario has to have exercised recovery to mean anything.
  EXPECT_GT(report.losses, 0u);
  EXPECT_GT(report.recovered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRecoveryTest,
                         ::testing::Values(7u, 1995u, 20260806u));

}  // namespace
}  // namespace srm
