#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace srm::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, EqualTimesFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(2.0, [&] {
    q.schedule_after(3.0, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueueTest, RejectsPastAndNegative) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_after(-0.1, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, RejectsNonFiniteTimes) {
  // NaN compares false against now(), so only an explicit finiteness check
  // keeps it (and infinities) out of the heap.
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at_seq(nan, q.allocate_seqs(1), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_after(inf, [] {}), std::invalid_argument);
  EXPECT_EQ(q.pending_events(), 0u);
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueueTest, RejectsEmptyFunction) {
  EventQueue q;
  EXPECT_THROW(q.schedule_at(1.0, std::function<void()>{}),
               std::invalid_argument);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());  // second cancel is a no-op
  q.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, HandleNotPendingAfterFire) {
  EventQueue q;
  EventHandle h = q.schedule_at(1.0, [] {});
  q.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] { fired.push_back(1.0); });
  q.schedule_at(2.0, [&] { fired.push_back(2.0); });
  q.schedule_at(3.0, [&] { fired.push_back(3.0); });
  EXPECT_EQ(q.run_until(2.0), 2u);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending_events(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.run_until(10.0);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueueTest, StopHaltsRun) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    q.schedule_at(i, [&] {
      ++count;
      if (count == 2) q.stop();
    });
  }
  q.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.pending_events(), 3u);
}

TEST(EventQueueTest, RunStepsLimitsExecution) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    q.schedule_at(i, [&] { ++count; });
  }
  EXPECT_EQ(q.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) q.schedule_after(1.0, recurse);
  };
  q.schedule_at(0.0, recurse);
  q.run();
  EXPECT_EQ(depth, 50);
  EXPECT_DOUBLE_EQ(q.now(), 49.0);
}

TEST(EventQueueTest, ResetClearsEverything) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.schedule_at(6.0, [] {});
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueueTest, ResetCancelsOutstandingHandles) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule_at(5.0, [&] { ran = true; });
  ASSERT_TRUE(h.pending());
  q.reset();
  // A handle that survived reset must read as cancelled, not pending forever.
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
  EXPECT_EQ(q.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, ResetThenReuseIsClean) {
  EventQueue q;
  std::vector<EventHandle> stale;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      stale.push_back(q.schedule_at(static_cast<double>(i), [] {}));
    }
    q.reset();
  }
  for (const EventHandle& h : stale) EXPECT_FALSE(h.pending());
  // The queue is fully usable after repeated resets: FIFO order intact.
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.run(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, StaleHandleCannotTouchRecycledSlot) {
  EventQueue q;
  EventHandle first = q.schedule_at(1.0, [] {});
  ASSERT_TRUE(first.cancel());
  // The next schedule recycles the same storage; the stale handle must not
  // see — let alone cancel — the new event.
  bool ran = false;
  EventHandle second = q.schedule_at(2.0, [&] { ran = true; });
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(first.cancel());
  EXPECT_TRUE(second.pending());
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CancelHeavyInterleavings) {
  // SRM-style timer churn: schedule, suppress, back off (reschedule), fire.
  EventQueue q;
  constexpr int kTimers = 500;
  std::vector<EventHandle> handles(kTimers);
  std::vector<int> fired;
  for (int i = 0; i < kTimers; ++i) {
    handles[i] = q.schedule_at(static_cast<double>(i % 7) + 1.0,
                               [&fired, i] { fired.push_back(i); });
  }
  int expected = 0;
  for (int i = 0; i < kTimers; ++i) {
    if (i % 3 == 0) {
      ++expected;  // left alone: fires at original time
    } else if (i % 3 == 1) {
      // Suppressed, then re-armed later (back-off): fires exactly once.
      EXPECT_TRUE(handles[i].cancel());
      handles[i] = q.schedule_at(50.0 + static_cast<double>(i % 5),
                                 [&fired, i] { fired.push_back(i); });
      ++expected;
    } else {
      EXPECT_TRUE(handles[i].cancel());  // suppressed for good
      EXPECT_FALSE(handles[i].cancel());
    }
  }
  EXPECT_EQ(q.run(), static_cast<std::size_t>(expected));
  EXPECT_EQ(fired.size(), static_cast<std::size_t>(expected));
  for (const EventHandle& h : handles) EXPECT_FALSE(h.pending());
}

TEST(EventQueueTest, PendingEventsExcludesCancelled) {
  EventQueue q;
  EventHandle a = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  EXPECT_EQ(q.pending_events(), 2u);
  a.cancel();
  EXPECT_EQ(q.pending_events(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunUntilSkipsCancelledHead) {
  EventQueue q;
  bool ran = false;
  EventHandle head = q.schedule_at(1.0, [] { FAIL() << "cancelled event ran"; });
  q.schedule_at(2.0, [&] { ran = true; });
  head.cancel();
  EXPECT_EQ(q.run_until(5.0), 1u);
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueueTest, CancelFromInsideEvent) {
  EventQueue q;
  EventHandle victim;
  q.schedule_at(1.0, [&] { EXPECT_TRUE(victim.cancel()); });
  victim = q.schedule_at(2.0, [] { FAIL() << "suppressed event ran"; });
  EXPECT_EQ(q.run(), 1u);
}

TEST(EventQueueTest, CancelledEventsNotCounted) {
  EventQueue q;
  EventHandle h = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  h.cancel();
  EXPECT_EQ(q.run(), 1u);
}

}  // namespace
}  // namespace srm::sim
