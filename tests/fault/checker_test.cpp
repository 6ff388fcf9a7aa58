#include "fault/checker.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "trace/trace.h"

namespace srm::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

trace::Event ev(trace::EventType type, double t, std::uint64_t actor,
                std::uint64_t seq = 0) {
  trace::Event e;
  e.type = type;
  e.t = t;
  e.actor = actor;
  e.a = 1;  // ADU name: source 1, page (1, 0), seq in d
  e.b = 1;
  e.c = 0;
  e.d = seq;
  return e;
}

CheckerOptions opts(double deadline = 100.0) {
  CheckerOptions o;
  o.deadline = deadline;
  return o;
}

TEST(CheckerTest, EmptyTracePasses) {
  const auto report = RecoveryInvariantChecker().check({}, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.losses, 0u);
}

TEST(CheckerTest, RecoveredInTimePassesAndRecordsLatency) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmRecovered, 14.5, 2),
  };
  const auto report = RecoveryInvariantChecker(opts()).check(events, {}, 100.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.losses, 1u);
  EXPECT_EQ(report.recovered, 1u);
  ASSERT_EQ(report.recovery_latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(report.recovery_latencies[0], 4.5);
}

TEST(CheckerTest, UnrecoveredPastDeadlineFails) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const auto report =
      RecoveryInvariantChecker(opts(50.0)).check(events, {}, 1000.0);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.unrecovered.size(), 1u);
  EXPECT_EQ(report.unrecovered[0].member, 2u);
  EXPECT_DOUBLE_EQ(report.unrecovered[0].deadline_at, 60.0);
  EXPECT_FALSE(report.unrecovered[0].abandoned);
}

TEST(CheckerTest, AbandonedLossIsFlagged) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmAbandoned, 20.0, 2),
  };
  const auto report =
      RecoveryInvariantChecker(opts(50.0)).check(events, {}, 1000.0);
  ASSERT_EQ(report.unrecovered.size(), 1u);
  EXPECT_TRUE(report.unrecovered[0].abandoned);
}

TEST(CheckerTest, DeadlineBeyondTraceIsPendingNotViolation) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const auto report =
      RecoveryInvariantChecker(opts(100.0)).check(events, {}, 50.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.pending_past_trace, 1u);
}

TEST(CheckerTest, DepartedMemberIsExempt) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kFaultCrash, 20.0, 2),
  };
  const auto report =
      RecoveryInvariantChecker(opts(50.0)).check(events, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.exempt_departed, 1u);
}

TEST(CheckerTest, DepartureBeforeLossDoesNotExempt) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kFaultLeave, 5.0, 2),
      ev(trace::EventType::kSrmLoss, 10.0, 2),  // rejoined and lost again
  };
  const auto report =
      RecoveryInvariantChecker(opts(50.0)).check(events, {}, 1000.0);
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.exempt_departed, 0u);
}

TEST(CheckerTest, OverlappingWindowExtendsDeadline) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmRecovered, 115.0, 2),  // late vs. base deadline
  };
  const std::vector<FaultInjector::Window> windows{{15.0, 100.0}};
  // Base deadline 10 + 20 = 30, but the window [15, 100] overlaps it, so the
  // effective deadline is 100 + 20 = 120 and the recovery at 115 is in time.
  const auto report =
      RecoveryInvariantChecker(opts(20.0)).check(events, windows, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.recovered, 1u);
}

TEST(CheckerTest, ClosedWindowBeforeLossDoesNotExtend) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const std::vector<FaultInjector::Window> windows{{1.0, 5.0}};
  const auto report =
      RecoveryInvariantChecker(opts(20.0)).check(events, windows, 1000.0);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.unrecovered.size(), 1u);
  EXPECT_DOUBLE_EQ(report.unrecovered[0].deadline_at, 30.0);
}

TEST(CheckerTest, UnhealedDisruptionExemptsOverlappingLosses) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const std::vector<FaultInjector::Window> windows{{5.0, kInf}};
  const auto report =
      RecoveryInvariantChecker(opts(20.0)).check(events, windows, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.exempt_unhealed, 1u);
}

TEST(CheckerTest, RedetectionRestartsTheClock) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmLoss, 500.0, 2),  // same ADU, detected again
      ev(trace::EventType::kSrmRecovered, 510.0, 2),
  };
  const auto report =
      RecoveryInvariantChecker(opts(50.0)).check(events, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.losses, 1u);  // one (member, ADU) pair
  ASSERT_EQ(report.recovery_latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(report.recovery_latencies[0], 10.0);
}

TEST(CheckerTest, DistinctAdusAndMembersAreSeparateLosses) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2, /*seq=*/0),
      ev(trace::EventType::kSrmLoss, 10.0, 2, /*seq=*/1),
      ev(trace::EventType::kSrmLoss, 10.0, 3, /*seq=*/0),
      ev(trace::EventType::kSrmRecovered, 20.0, 2, /*seq=*/0),
      ev(trace::EventType::kSrmRecovered, 20.0, 2, /*seq=*/1),
      ev(trace::EventType::kSrmRecovered, 20.0, 3, /*seq=*/0),
  };
  const auto report = RecoveryInvariantChecker(opts()).check(events, {}, 100.0);
  EXPECT_EQ(report.losses, 3u);
  EXPECT_EQ(report.recovered, 3u);
  EXPECT_TRUE(report.passed);
}

TEST(CheckerTest, StormViolationWhenBudgetExceeded) {
  CheckerOptions o;
  o.storm_budget = 10;
  std::vector<trace::Event> events;
  for (int i = 0; i < 12; ++i) {
    events.push_back(
        ev(trace::EventType::kSrmReqSend, 50.0 + i * 0.01, 2));
  }
  const auto report = RecoveryInvariantChecker(o).check(events, {}, 100.0);
  EXPECT_FALSE(report.passed);
  EXPECT_GT(report.storm_violations, 0u);
  EXPECT_EQ(report.worst_window_count, 12u);
  EXPECT_DOUBLE_EQ(report.worst_window_start, 50.0);
}

TEST(CheckerTest, SpreadOutSendsAreNotAStorm) {
  CheckerOptions o;
  o.storm_budget = 10;
  std::vector<trace::Event> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(ev(trace::EventType::kSrmRepSend, i * 2.0, 2));
  }
  const auto report = RecoveryInvariantChecker(o).check(events, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.storm_violations, 0u);
  EXPECT_EQ(report.worst_window_count, 1u);
}

TEST(CheckerTest, AdaptationRequiredAfterDisruptionWithLosses) {
  CheckerOptions o;
  o.require_adaptation = true;
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 30.0, 2),
      ev(trace::EventType::kSrmRecovered, 35.0, 2),
  };
  const std::vector<FaultInjector::Window> windows{{10.0, 20.0}};
  const auto no_adapt = RecoveryInvariantChecker(o).check(events, windows,
                                                          1000.0);
  EXPECT_FALSE(no_adapt.passed);
  EXPECT_EQ(no_adapt.adaptation_failures, 1u);

  std::vector<trace::Event> with_adapt = events;
  with_adapt.push_back(ev(trace::EventType::kSrmAdaptReq, 32.0, 2));
  const auto adapted = RecoveryInvariantChecker(o).check(with_adapt, windows,
                                                         1000.0);
  EXPECT_TRUE(adapted.passed);
  EXPECT_EQ(adapted.adaptation_failures, 0u);
}

TEST(CheckerTest, SummaryMentionsVerdictAndViolations) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const auto report =
      RecoveryInvariantChecker(opts(50.0)).check(events, {}, 1000.0);
  const std::string s = report.summary();
  EXPECT_NE(s.find("FAIL"), std::string::npos);
  EXPECT_NE(s.find("member 2"), std::string::npos);
  const auto ok = RecoveryInvariantChecker(opts()).check({}, {}, 1.0);
  EXPECT_NE(ok.summary().find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace srm::fault
