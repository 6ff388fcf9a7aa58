#include "sim/pdes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

namespace srm::sim {
namespace {

// A deterministic log shared by all regions: every entry is tagged with the
// (virtual time, region) that produced it and the log is sorted afterwards,
// so assertions never depend on worker interleaving.
struct Log {
  std::mutex mu;
  std::vector<std::pair<double, int>> entries;
  void add(double t, int tag) {
    const std::lock_guard<std::mutex> lock(mu);
    entries.emplace_back(t, tag);
  }
  std::vector<std::pair<double, int>> sorted() {
    const std::lock_guard<std::mutex> lock(mu);
    auto copy = entries;
    std::sort(copy.begin(), copy.end());
    return copy;
  }
};

// A test-local cross-region mailbox of the kind a subsystem keeps for its
// own payloads: lanes_[to][from] is written only by region `from`'s worker
// during a window, and region `to`'s drain hook schedules the lane contents
// between windows in (time, origin region, send order).
class Mailbox {
 public:
  explicit Mailbox(ParallelKernel& k)
      : k_(&k),
        lanes_(k.region_count(), std::vector<std::vector<Mail>>(
                                     k.region_count())) {
    for (std::size_t r = 0; r < k.region_count(); ++r) {
      k.set_drain_hook(r, [this, r] { return drain(r); });
    }
  }

  // From a region-`from` event: run fn in region `to` at `when`, which must
  // respect the pair bound.
  void send(std::size_t from, std::size_t to, Time when,
            std::function<void()> fn) {
    EXPECT_GE(when, k_->region_queue(from).now() + k_->min_delay(from, to));
    lanes_[to][from].push_back(Mail{when, std::move(fn)});
  }

  std::uint64_t drain(std::size_t to) {
    std::vector<Mail> merged;
    for (std::vector<Mail>& lane : lanes_[to]) {
      for (Mail& m : lane) merged.push_back(std::move(m));
      lane.clear();
    }
    // Lanes were visited in origin order, so a stable sort by time leaves
    // ties in (origin region, send order).
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const Mail& a, const Mail& b) { return a.when < b.when; });
    for (Mail& m : merged) {
      k_->region_queue(to).schedule_at(m.when, std::move(m.fn));
    }
    return merged.size();
  }

 private:
  struct Mail {
    Time when;
    std::function<void()> fn;
  };
  ParallelKernel* k_;
  std::vector<std::vector<std::vector<Mail>>> lanes_;
};

TEST(PdesKernelTest, RejectsBadConstruction) {
  EXPECT_THROW(ParallelKernel(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ParallelKernel(2, 0.0), std::invalid_argument);
  EXPECT_THROW(ParallelKernel(2, -1.0), std::invalid_argument);
  EXPECT_NO_THROW(ParallelKernel(1, 0.0));  // single region: no lookahead need
  EXPECT_NO_THROW(ParallelKernel(4, 0.5));
}

TEST(PdesKernelTest, RunsRegionEventsToCompletion) {
  ParallelKernel k(3, 1.0);
  std::atomic<int> fired{0};
  for (std::size_t r = 0; r < 3; ++r) {
    for (int i = 0; i < 5; ++i) {
      k.region_queue(r).schedule_at(static_cast<double>(i), [&] { ++fired; });
    }
  }
  const auto stats = k.run(2);
  EXPECT_EQ(fired.load(), 15);
  EXPECT_EQ(stats.region_events, 15u);
  EXPECT_EQ(stats.global_events, 0u);
  EXPECT_DOUBLE_EQ(k.now(), 4.0);
}

TEST(PdesKernelTest, GlobalEventsSerializeAgainstRegions) {
  // A global event at t must observe every region advanced exactly to t and
  // run before any region event at the same t.
  ParallelKernel k(2, 0.5);
  Log log;
  k.region_queue(0).schedule_at(1.0, [&] { log.add(1.0, 10); });
  k.region_queue(1).schedule_at(3.0, [&] { log.add(3.0, 11); });
  k.global_queue().schedule_at(2.0, [&] {
    EXPECT_DOUBLE_EQ(k.region_queue(0).now(), 2.0);
    EXPECT_DOUBLE_EQ(k.region_queue(1).now(), 2.0);
    log.add(2.0, 100);
  });
  // Global and region event at the same time: global first.
  k.region_queue(0).schedule_at(4.0, [&] { log.add(4.0, 12); });
  k.global_queue().schedule_at(4.0, [&] { log.add(4.0, 99); });
  k.run(2);
  const auto got = log.sorted();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0], (std::pair<double, int>{1.0, 10}));
  EXPECT_EQ(got[1], (std::pair<double, int>{2.0, 100}));
  EXPECT_EQ(got[2], (std::pair<double, int>{3.0, 11}));
  // The tag sort at t=4 puts 12 before 99, but the *execution* order is
  // global-first; assert it via a flag instead.
  EXPECT_EQ(got[3].first, 4.0);
  EXPECT_EQ(got[4].first, 4.0);
}

TEST(PdesKernelTest, GlobalRunsBeforeRegionAtSameTime) {
  ParallelKernel k(2, 1.0);
  bool global_ran = false;
  bool region_saw_global = false;
  k.global_queue().schedule_at(1.0, [&] { global_ran = true; });
  k.region_queue(0).schedule_at(1.0, [&] { region_saw_global = global_ran; });
  k.run(2);
  EXPECT_TRUE(region_saw_global);
}

TEST(PdesKernelTest, DrainHookRunsAfterMailboxDelivery) {
  // Drain hooks run between windows: the hook adopting region 1's mail sees
  // the sending window finished, and the kernel counts what it adopted.
  ParallelKernel k(2, 1.0);
  Mailbox mail(k);
  bool sent = false;
  int hook_calls = 0;
  bool sender_done_at_drain = false;
  std::size_t scheduled_at_drain = 0;
  k.set_drain_hook(1, [&] {
    ++hook_calls;
    const std::uint64_t n = mail.drain(1);
    if (n != 0) {
      sender_done_at_drain = sent;
      scheduled_at_drain = k.region_queue(1).pending_events();
    }
    return n;
  });
  double delivered_at = -1.0;
  k.region_queue(0).schedule_at(0.0, [&] {
    mail.send(0, 1, 2.0, [&] { delivered_at = k.region_queue(1).now(); });
    sent = true;
  });
  k.run(1);
  EXPECT_GE(hook_calls, 1);
  EXPECT_TRUE(sender_done_at_drain);
  EXPECT_EQ(scheduled_at_drain, 1u);
  EXPECT_EQ(delivered_at, 2.0);
  EXPECT_EQ(k.total_stats().messages, 1u);
}

TEST(PdesKernelTest, DeterministicAcrossThreadCounts) {
  // A fixed event graph with cross-region chatter produces the same
  // execution log for 1, 2, 4 and 8 workers.
  const auto run_with = [](unsigned threads) {
    ParallelKernel k(4, 0.5);
    Mailbox mail(k);
    Log log;
    for (std::size_t r = 0; r < 4; ++r) {
      const int base = static_cast<int>(r) * 1000;
      k.region_queue(r).schedule_at(0.1 * (1.0 + static_cast<double>(r)),
                                    [&k, &mail, &log, r, base] {
        log.add(k.region_queue(r).now(), base);
        const std::size_t to = (r + 1) % 4;
        mail.send(r, to, k.region_queue(r).now() + 0.5,
                  [&k, &log, to, base] {
                    log.add(k.region_queue(to).now(), base + 1);
                  });
      });
    }
    k.global_queue().schedule_at(0.35, [&log] { log.add(0.35, -1); });
    k.run(threads);
    return log.sorted();
  };
  const auto one = run_with(1);
  const auto two = run_with(2);
  const auto four = run_with(4);
  const auto eight = run_with(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  ASSERT_EQ(one.size(), 9u);
}

TEST(PdesKernelTest, BoundedRunStopsAtTimeLimit) {
  ParallelKernel k(2, 1.0);
  std::atomic<int> fired{0};
  k.region_queue(0).schedule_at(1.0, [&] { ++fired; });
  k.region_queue(0).schedule_at(5.0, [&] { ++fired; });
  k.region_queue(1).schedule_at(2.0, [&] { ++fired; });
  k.run(2, /*t_end=*/2.0);
  // Events at exactly t_end run (run_until parity); later ones stay queued.
  EXPECT_EQ(fired.load(), 2);
  EXPECT_DOUBLE_EQ(k.now(), 2.0);
  k.run(2);
  EXPECT_EQ(fired.load(), 3);
}

TEST(PdesKernelTest, NowIsMaxOverClocksAndIdleRunIsSafe) {
  ParallelKernel k(2, 1.0);
  EXPECT_DOUBLE_EQ(k.now(), 0.0);
  const auto stats = k.run(2);  // nothing scheduled
  EXPECT_EQ(stats.region_events + stats.global_events, 0u);
  k.region_queue(1).schedule_at(3.0, [] {});
  k.run(2);
  EXPECT_DOUBLE_EQ(k.now(), 3.0);
  EXPECT_DOUBLE_EQ(k.region_queue(0).now(), 3.0);  // advanced at run end
}

TEST(PdesKernelTest, SingleRegionNeedsNoLookahead) {
  // regions == 1 with lookahead 0 degenerates to a sequential run plus the
  // global queue.
  ParallelKernel k(1, 0.0);
  std::vector<int> order;
  k.region_queue(0).schedule_at(1.0, [&] { order.push_back(1); });
  k.global_queue().schedule_at(2.0, [&] { order.push_back(2); });
  k.region_queue(0).schedule_at(3.0, [&] { order.push_back(3); });
  k.run(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(PdesKernelTest, SetRegionDistancesValidatesShapeAndBound) {
  ParallelKernel k(2, 1.0);
  // Not 2x2.
  EXPECT_THROW(k.set_region_distances({{0.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(k.set_region_distances({{0.0}, {2.0}}), std::invalid_argument);
  // Off-diagonal below the uniform lookahead: the matrix claims mail can
  // outrun the partition's own cut bound.
  EXPECT_THROW(k.set_region_distances({{0.0, 0.5}, {2.0, 0.0}}),
               std::invalid_argument);
  EXPECT_NO_THROW(k.set_region_distances({{0.0, 2.0}, {3.0, 0.0}}));
}

TEST(PdesKernelTest, DistanceMatrixWidensWindows) {
  // Two regions whose true separation (5) is far above the uniform
  // lookahead (1): with the matrix installed the same event ladder
  // completes in far fewer barrier rounds, with identical results.
  const auto run_with = [](bool matrix, unsigned threads) {
    ParallelKernel k(2, 1.0);
    if (matrix) k.set_region_distances({{0.0, 5.0}, {5.0, 0.0}});
    std::atomic<int> fired{0};
    for (std::size_t r = 0; r < 2; ++r) {
      for (int i = 0; i < 10; ++i) {
        k.region_queue(r).schedule_at(static_cast<double>(i), [&] { ++fired; });
      }
    }
    const auto stats = k.run(threads);
    EXPECT_EQ(fired.load(), 20);
    return stats;
  };
  const auto uniform = run_with(false, 2);
  const auto paired = run_with(true, 2);
  EXPECT_EQ(uniform.region_events, paired.region_events);
  EXPECT_LT(paired.windows, uniform.windows);
  // floors (0,0) -> window 5 runs t in [0,5), floors (5,5) -> window 10.
  EXPECT_EQ(paired.windows, 2u);
  // Window shapes are a pure function of the floors: thread count changes
  // neither the round count nor the events-per-round split.
  const auto paired1 = run_with(true, 1);
  EXPECT_EQ(paired1.windows, paired.windows);
  EXPECT_EQ(paired1.messages, paired.messages);
}

TEST(PdesKernelTest, SelfEchoDoesNotOutrunLoneActiveRegion) {
  // Regression: only region 0 has queued events, so no peer floor bounds
  // its window — but its own mail wakes region 1, whose reply must not
  // land in region 0's past.  The self-echo term (floor + min round trip)
  // caps the window; without it this run throws "time in the past".
  const auto run_with = [](unsigned threads) {
    ParallelKernel k(2, 1.0);
    Mailbox mail(k);
    Log log;
    for (int i = 0; i <= 10; ++i) {
      const double t = static_cast<double>(i);
      k.region_queue(0).schedule_at(t, [&log, &k, &mail, t] {
        log.add(t, 0);
        if (t == 0.0) {
          mail.send(0, 1, 1.0, [&log, &k, &mail] {
            log.add(k.region_queue(1).now(), 1);
            mail.send(1, 0, k.region_queue(1).now() + 1.0, [&log, &k] {
              log.add(k.region_queue(0).now(), 2);
            });
          });
        }
      });
    }
    k.run(threads);
    return log.sorted();
  };
  const auto one = run_with(1);
  ASSERT_EQ(one.size(), 13u);
  EXPECT_EQ(one[1], (std::pair<double, int>{1.0, 0}));
  EXPECT_EQ(one[2], (std::pair<double, int>{1.0, 1}));  // echo out at t=1
  EXPECT_EQ(one[3], (std::pair<double, int>{2.0, 0}));
  EXPECT_EQ(one[4], (std::pair<double, int>{2.0, 2}));  // echo back at t=2
  EXPECT_EQ(run_with(2), one);
}

TEST(PdesEventQueueTest, RunBeforeStopsStrictlyBeforeBound) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] { fired.push_back(1.0); });
  q.schedule_at(2.0, [&] { fired.push_back(2.0); });
  q.schedule_at(3.0, [&] { fired.push_back(3.0); });
  EXPECT_EQ(q.run_before(2.0), 1u);  // strictly before: t=2 stays
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_EQ(q.run_before(3.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(PdesEventQueueTest, NextEventTimeAndAdvance) {
  EventQueue q;
  EXPECT_TRUE(std::isinf(q.next_event_time()));
  q.schedule_at(5.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_event_time(), 5.0);
  q.advance_to(4.0);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
  q.advance_to(1.0);  // backwards: no-op
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
  EXPECT_THROW(q.advance_to(6.0), std::logic_error);
  q.run();
  EXPECT_TRUE(std::isinf(q.next_event_time()));
}

TEST(PdesEventQueueTest, NextEventTimePrunesCancelledTimers) {
  EventQueue q;
  auto handle = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  handle.cancel();
  EXPECT_DOUBLE_EQ(q.next_event_time(), 2.0);
}

}  // namespace
}  // namespace srm::sim
