#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

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

// --- run_inline: the next event, run by the body that asks -----------------

TEST(EventQueueTest, RunInlineRefusesOutsideARunLoop) {
  EventQueue q;
  EXPECT_FALSE(q.run_inline(0.0, q.allocate_seqs(1)));
  q.schedule_at(1.0, [] {});
  EXPECT_EQ(q.run(), 1u);
  EXPECT_FALSE(q.run_inline(1.0, q.allocate_seqs(1)));
  EXPECT_EQ(q.executed_events(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueueTest, RunInlineAtRunUntilBoundIsInclusive) {
  EventQueue q;
  const std::uint64_t seq = q.allocate_seqs(2);
  bool above = true;
  bool at = false;
  q.schedule_at(1.0, [&] {
    above = q.run_inline(std::nextafter(2.0, 3.0), seq);
    at = q.run_inline(2.0, seq + 1);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
  });
  EXPECT_EQ(q.run_until(2.0), 2u);
  EXPECT_FALSE(above);
  EXPECT_TRUE(at);
}

TEST(EventQueueTest, RunInlineAtRunBeforeBoundIsExclusive) {
  EventQueue q;
  const std::uint64_t seq = q.allocate_seqs(2);
  bool at = true;
  bool below = false;
  q.schedule_at(1.0, [&] {
    at = q.run_inline(2.0, seq);
    below = q.run_inline(std::nextafter(2.0, 0.0), seq + 1);
  });
  EXPECT_EQ(q.run_before(2.0), 2u);
  EXPECT_FALSE(at);
  EXPECT_TRUE(below);
  EXPECT_DOUBLE_EQ(q.now(), std::nextafter(2.0, 0.0));
}

TEST(EventQueueTest, RunInlineRefusesOnceRunStepsBudgetIsSpent) {
  EventQueue q;
  const std::uint64_t seq = q.allocate_seqs(3);
  std::vector<bool> answers;
  q.schedule_at(1.0, [&] {
    for (std::uint64_t i = 0; i < 3; ++i) {
      answers.push_back(q.run_inline(2.0 + static_cast<double>(i), seq + i));
    }
  });
  q.schedule_at(9.0, [] {});
  EXPECT_EQ(q.run_steps(3), 3u);  // the fired event and two inline ones
  EXPECT_EQ(answers, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(q.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);

  bool refused = false;
  q.schedule_at(8.0, [&] { refused = !q.run_inline(8.5, q.allocate_seqs(1)); });
  EXPECT_EQ(q.run_steps(1), 1u);
  EXPECT_TRUE(refused);
}

TEST(EventQueueTest, RunInlineRefusesAfterStop) {
  EventQueue q;
  bool accepted = true;
  q.schedule_at(1.0, [&] {
    q.stop();
    accepted = q.run_inline(1.5, q.allocate_seqs(1));
  });
  q.schedule_at(2.0, [] {});
  EXPECT_EQ(q.run(), 1u);
  EXPECT_FALSE(accepted);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueueTest, RunInlineRefusesWhenTheBodyScheduledAnEarlierEvent) {
  // The body's schedule takes the fired root's place: the root is live.
  EventQueue q;
  const std::uint64_t seq = q.allocate_seqs(2);
  std::vector<bool> answers;
  q.schedule_at(1.0, [&] {
    q.schedule_at(1.5, [] {});
    answers.push_back(q.run_inline(2.0, seq));
    // Ties break by seq.
    answers.push_back(q.run_inline(1.5, q.allocate_seqs(1)));
    answers.push_back(q.run_inline(1.5, seq + 1));
  });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(answers, (std::vector<bool>{false, false, true}));
}

TEST(EventQueueTest, RunInlineRefusesWhenAnEventBelowTheFiredRootIsEarlier) {
  // Nothing is scheduled by the body, so the fired event's entry is still
  // the root and the pending events are its children.
  EventQueue q;
  const std::uint64_t early = q.allocate_seqs(1);
  q.schedule_at(1.0, [] {});  // fires first
  std::vector<bool> answers;
  q.schedule_at(1.0, [&] {
    const std::uint64_t late = q.allocate_seqs(1);
    answers.push_back(q.run_inline(3.0, late));
    answers.push_back(q.run_inline(2.0, late));  // ties the pending event
    answers.push_back(q.run_inline(2.0, early));
  });
  for (int i = 0; i < 4; ++i) q.schedule_at(2.0 + i, [] {});
  EXPECT_EQ(q.run_steps(3), 3u);  // both events at 1.0 and the inline one
  EXPECT_EQ(answers, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(q.pending_events(), 4u);
}

TEST(EventQueueTest, RunInlineRefusesWhileTheQueueTracesSim) {
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  EventQueue q;
  q.set_tracer(&tracer);
  std::vector<bool> answers;
  for (const trace::Category c : {trace::Category::kSim, trace::Category::kNet}) {
    tracer.set_mask(static_cast<std::uint32_t>(c));
    q.schedule_at(q.now() + 1.0, [&] {
      answers.push_back(q.run_inline(q.now() + 1.0, q.allocate_seqs(1)));
    });
    q.run();
  }
  EXPECT_EQ(answers, (std::vector<bool>{false, true}));
}

TEST(EventQueueTest, RunInlineEventsCountLikeQueuedOnes) {
  EventQueue q;
  const std::uint64_t seq = q.allocate_seqs(4);
  q.schedule_at(1.0, [&] {
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(q.run_inline(1.0 + static_cast<double>(i), seq + i));
    }
  });
  q.schedule_at(10.0, [] {});
  EXPECT_EQ(q.run_until(5.0), 5u);
  EXPECT_EQ(q.executed_events(), 5u);
  EXPECT_EQ(q.run_before(20.0), 1u);
  EXPECT_EQ(q.executed_events(), 6u);
}

TEST(EventQueueTest, RunLoopsDoNotNest) {
  EventQueue q;
  q.schedule_at(1.0, [&] { q.run_steps(1); });
  q.schedule_at(2.0, [] {});
  EXPECT_THROW(q.run(), std::logic_error);
  // The outer loop's bound went with it: the queue runs on.
  EXPECT_FALSE(q.run_inline(3.0, q.allocate_seqs(1)));
  EXPECT_EQ(q.run(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueueTest, CancelAtAnyHeapPositionKeepsTimeOrder) {
  // A cancelled timer leaves the heap when it is cancelled, whatever its
  // position: the last entry fills the hole and sifts up or down.
  EventQueue q;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 64; ++i) {
    const double t = static_cast<double>((i * 37) % 64);
    handles.push_back(q.schedule_at(t, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 3) EXPECT_TRUE(handles[i].cancel());
  std::vector<int> want;  // by time: 45 inverts 37 mod 64
  for (int t = 0; t < 64; ++t) {
    if ((t * 45) % 64 % 3 != 0) want.push_back((t * 45) % 64);
  }
  EXPECT_EQ(q.pending_events(), want.size());
  EXPECT_EQ(q.run(), want.size());
  EXPECT_EQ(fired, want);
}

// --- Root reuse against a reference queue ----------------------------------
//
// EventQueue fires an event without popping it: the entry stays at the heap
// root while the body runs, and the first event the body schedules is
// written over it.  A cancelled event's entry leaves the heap wherever it
// sits.  The reference keeps no heap: its pending events sit in an
// ordered map by (when, seq), beside a mirror of the queue's LIFO slot
// free list and per-slot generations, and it writes the `sim` trace records
// the queue's contract promises.  Seeded scripts drive both through the
// same calls; the fire order, every value read back and every trace record
// must match.

class ReferenceQueue {
 public:
  class Handle {
   public:
    Handle() = default;
    bool pending() const {
      return queue_ != nullptr && queue_->live(slot_, generation_);
    }
    bool cancel() {
      return queue_ != nullptr && queue_->cancel(slot_, generation_);
    }

   private:
    friend class ReferenceQueue;
    Handle(ReferenceQueue* q, std::uint32_t slot, std::uint32_t generation)
        : queue_(q), slot_(slot), generation_(generation) {}
    ReferenceQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
  };

  Time now() const { return now_; }
  std::size_t pending_events() const { return pending_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  const std::vector<trace::Event>& trace() const { return trace_; }
  void stop() { stopped_ = true; }

  std::uint64_t allocate_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }
  // The reference runs nothing inline: a chain step it refuses is queued,
  // and its loop then pops the steps in (when, seq) order, which is what
  // EventQueue::run_inline must reproduce without queueing them.
  bool run_inline(Time, std::uint64_t) { return false; }

  Handle schedule_at(Time t, std::function<void()> fn) {
    return schedule_at_seq(t, next_seq_++, std::move(fn));
  }
  Handle schedule_at_seq(Time t, std::uint64_t seq, std::function<void()> fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(generation_.size());
      generation_.push_back(0);
      live_.push_back(false);
      key_.emplace_back();
    }
    live_[slot] = true;
    key_[slot] = {t, seq};
    pending_.emplace(key_[slot], Pending{slot, std::move(fn)});
    emit(trace::EventType::kSimSchedule, slot, t);
    return Handle(this, slot, generation_[slot]);
  }

  Time next_event_time() const {
    return pending_.empty() ? std::numeric_limits<Time>::infinity()
                            : pending_.begin()->first.first;
  }
  void advance_to(Time t) {
    if (t <= now_) return;
    if (next_event_time() < t) throw std::logic_error("pending event earlier");
    now_ = t;
  }

  std::size_t run() {
    return run_while([](Time) { return true; });
  }
  std::size_t run_until(Time t_end) {
    const std::size_t n = run_while([t_end](Time t) { return t <= t_end; });
    if (!stopped_ && now_ < t_end) now_ = t_end;
    return n;
  }
  std::size_t run_before(Time t_end) {
    return run_while([t_end](Time t) { return t < t_end; });
  }
  std::size_t run_steps(std::size_t max_events) {
    std::size_t left = max_events;
    return run_while([&left](Time) {
      if (left == 0) return false;
      --left;
      return true;
    });
  }

 private:
  struct Pending {
    std::uint32_t slot;
    std::function<void()> fn;
  };

  bool live(std::uint32_t slot, std::uint32_t generation) const {
    return slot < live_.size() && live_[slot] &&
           generation_[slot] == generation;
  }
  bool cancel(std::uint32_t slot, std::uint32_t generation) {
    if (!live(slot, generation)) return false;
    emit(trace::EventType::kSimCancel, slot);
    pending_.erase(key_[slot]);
    release(slot);
    return true;
  }
  void release(std::uint32_t slot) {
    live_[slot] = false;
    ++generation_[slot];
    free_.push_back(slot);
  }
  void emit(trace::EventType type, std::uint32_t slot, double x = 0.0) {
    trace::Event ev;
    ev.type = type;
    ev.t = now_;
    ev.a = slot;
    ev.b = generation_[slot];
    ev.x = x;
    trace_.push_back(ev);
  }
  template <typename Until>
  std::size_t run_while(const Until& until) {
    stopped_ = false;
    std::size_t executed = 0;
    while (!stopped_ && !pending_.empty() &&
           until(pending_.begin()->first.first)) {
      const auto top = pending_.begin();
      now_ = top->first.first;
      const std::uint32_t slot = top->second.slot;
      std::function<void()> fn = std::move(top->second.fn);
      pending_.erase(top);
      emit(trace::EventType::kSimFire, slot);
      release(slot);
      ++executed_;
      ++executed;
      fn();
    }
    return executed;
  }

  std::map<std::pair<Time, std::uint64_t>, Pending> pending_;
  std::vector<std::uint32_t> generation_;
  std::vector<bool> live_;
  std::vector<std::pair<Time, std::uint64_t>> key_;  // of each live slot
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::vector<trace::Event> trace_;
};

// Plays one seeded script on a queue of type Q.  Events are named by
// schedule order, which is also their seq order, so the script knows the
// (when, seq) order of what it has pending without asking the queue.
// Beside single events it sends chains, as the network's multicasts do: a
// block of seqs reserved up front, the items ordered by time with the
// block's order on ties, and each step running the next one through
// run_inline() or else queueing it.
template <typename Q>
class Script {
 public:
  Script(Q& q, std::uint64_t seed) : q_(q), state_(seed) {}

  void play() {
    for (int i = 0; i < 16; ++i) schedule(later());
    for (int step = 0; step < 600; ++step) {
      switch (draw(12)) {
        case 0:
          for (std::uint64_t k = draw(3); k-- > 0;) schedule(pick_time());
          break;
        case 1:
          cancel_near_root();
          break;
        case 2:
          log(q_.run_steps(1 + draw(24)));
          break;
        case 3:
        case 4:
          log(q_.run_until(q_.now() + later()));
          break;
        case 5:
        case 6:
          log(q_.run_before(q_.now() + later()));
          break;
        case 7: {
          // Legal up to the next event; past it both must refuse.
          const Time next = q_.next_event_time();
          const Time target = draw(2) == 0 && next != kNever
                                  ? next
                                  : q_.now() + later();
          bool refused = false;
          try {
            q_.advance_to(target);
          } catch (const std::logic_error&) {
            refused = true;
          }
          log(refused ? 1.0 : 0.0);
          break;
        }
        case 8:
          if (draw(8) == 0) log(q_.run());
          break;
        case 9:
          start_chain();
          break;
        case 10:
          cancel_any();
          break;
        default:
          log(q_.next_event_time());
          break;
      }
      log(q_.now());
      log(q_.pending_events());
      log(q_.executed_events());
    }
    // Drain; a stop() inside a callback can end a run early, but a run
    // that executes nothing has lost the events it counts as pending.
    while (q_.pending_events() > 0) {
      const std::size_t executed = q_.run();
      log(executed);
      if (executed == 0) break;
    }
  }

  std::vector<int> fired;
  std::vector<double> values;
  std::size_t inline_steps = 0;  // chain steps run_inline() admitted

 private:
  static constexpr Time kNever = std::numeric_limits<Time>::infinity();
  static constexpr int kMaxEvents = 4000;

  std::uint64_t draw(std::uint64_t n) {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) % n;
  }
  void log(double v) { values.push_back(v); }
  // A delay ahead of now: mostly quarter units, so times tie often.
  Time later() {
    if (draw(5) == 0) return static_cast<double>(draw(1u << 20)) / 7e5;
    return 0.25 * static_cast<double>(draw(9));
  }
  // Now, the time of another pending event, or later.
  Time pick_time() {
    switch (draw(3)) {
      case 0:
        return q_.now();
      case 1:
        // Never in the past, even where a broken queue lost the event.
        if (!live_.empty()) {
          return std::max(q_.now(), nth_live(draw(live_.size()))->first);
        }
        return q_.now();
      default:
        return q_.now() + later();
    }
  }
  // The k-th pending event in fire order, k capped at 15 and at the last.
  std::set<std::pair<Time, int>>::iterator nth_live(std::uint64_t k) {
    const std::uint64_t last = live_.size() - 1;
    return std::next(live_.begin(), static_cast<std::ptrdiff_t>(
                                        std::min<std::uint64_t>({k, last, 15})));
  }

  void schedule(Time t) {
    if (static_cast<int>(when_.size()) >= kMaxEvents) return;
    const int id = static_cast<int>(when_.size());
    when_.push_back(t);
    handles_.push_back(q_.schedule_at(t, [this, id] { fire(id); }));
    live_.emplace(t, id);
  }
  void cancel(int id) {
    const bool was = handles_[id].pending();
    log(handles_[id].cancel() ? 1.0 : 0.0);
    if (was) live_.erase({when_[id], id});
  }
  // Cancels the next event to fire or one of the few after it: while an
  // event body runs, the first of them sits just below the root.
  void cancel_near_root() {
    if (!live_.empty()) cancel(nth_live(draw(3))->second);
  }
  // Cancels any pending single event: its entry may sit anywhere.
  void cancel_any() {
    if (live_.empty()) return;
    cancel(std::next(live_.begin(),
                     static_cast<std::ptrdiff_t>(draw(live_.size())))
               ->second);
  }

  struct Chain {
    std::vector<std::pair<Time, std::uint64_t>> keys;  // (when, seq)
    std::vector<int> ids;
    std::size_t cursor = 0;
  };
  void start_chain() {
    const std::uint64_t n = 1 + draw(8);
    if (when_.size() + n > static_cast<std::size_t>(kMaxEvents)) return;
    const std::uint64_t base = q_.allocate_seqs(n);
    std::vector<std::pair<Time, std::uint64_t>> keys;
    for (std::uint64_t i = 0; i < n; ++i) {
      keys.emplace_back(q_.now() + later(), base + n - 1 - i);
    }
    std::sort(keys.begin(), keys.end());
    Chain& c = chains_.emplace_back();
    for (const auto& key : keys) {
      c.keys.push_back(key);
      c.ids.push_back(static_cast<int>(when_.size()));
      when_.push_back(key.first);
      handles_.emplace_back();  // a chain step has no handle
    }
    queue_step(chains_.size() - 1);
  }
  void queue_step(std::size_t c) {
    const auto [t, seq] = chains_[c].keys[chains_[c].cursor];
    q_.schedule_at_seq(t, seq, [this, c] { step(c); });
  }
  // One queued chain step, and the ones after it that run inline.  A step
  // may start chains, so chains_ is re-read after each.
  void step(std::size_t c) {
    for (;;) {
      fire(chains_[c].ids[chains_[c].cursor++]);
      if (chains_[c].cursor == chains_[c].keys.size()) return;
      const auto [t, seq] = chains_[c].keys[chains_[c].cursor];
      if (!q_.run_inline(t, seq)) {
        queue_step(c);
        return;
      }
      ++inline_steps;
    }
  }

  void fire(int id) {
    fired.push_back(id);
    live_.erase({when_[id], id});
    if (draw(4) == 0) {
      log(q_.next_event_time());
      log(q_.pending_events());
    }
    for (std::uint64_t k = draw(4); k-- > 0;) {
      schedule(pick_time());
      if (draw(6) == 0 && static_cast<int>(when_.size()) - 1 > id) {
        cancel(static_cast<int>(when_.size()) - 1);  // just scheduled
      }
    }
    if (draw(5) == 0) cancel_near_root();
    if (draw(7) == 0) cancel_any();
    if (draw(6) == 0) start_chain();
    if (draw(9) == 0) log(handles_[id].pending() ? 1.0 : 0.0);
    if (draw(40) == 0) q_.stop();
  }

  Q& q_;
  std::uint64_t state_;
  std::vector<Time> when_;
  std::vector<decltype(std::declval<Q&>().schedule_at(0.0, {}))> handles_;
  std::set<std::pair<Time, int>> live_;  // pending single events
  std::vector<Chain> chains_;
};

TEST(EventQueueTest, RootReuseMatchesReferenceQueue) {
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue q;
    trace::Tracer tracer;
    trace::VectorSink sink;
    tracer.set_sink(&sink);
    tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSim));
    q.set_tracer(&tracer);
    Script<EventQueue> got(q, seed);
    got.play();

    ReferenceQueue ref;
    Script<ReferenceQueue> want(ref, seed);
    want.play();

    ASSERT_EQ(got.fired, want.fired);
    ASSERT_EQ(got.values, want.values);
    ASSERT_EQ(sink.events().size(), ref.trace().size());
    for (std::size_t i = 0; i < ref.trace().size(); ++i) {
      ASSERT_EQ(sink.events()[i], ref.trace()[i]) << "trace record " << i;
    }
    fired += got.fired.size();
  }
  EXPECT_GT(fired, 40000u);
}

// The same scripts on an untraced queue, where chain steps run inline
// whenever run_inline() admits them.  The reference queues every step, so
// an admitted step that was not the next event, or that lay past the
// loop's bound, shows in the fire order, the clock, the event counts or
// the pending count logged after every step.
TEST(EventQueueTest, InlineChainsMatchReferenceQueue) {
  std::size_t fired = 0;
  std::size_t inline_steps = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue q;
    Script<EventQueue> got(q, seed);
    got.play();

    ReferenceQueue ref;
    Script<ReferenceQueue> want(ref, seed);
    want.play();

    ASSERT_EQ(got.fired, want.fired);
    ASSERT_EQ(got.values, want.values);
    EXPECT_EQ(want.inline_steps, 0u);
    fired += got.fired.size();
    inline_steps += got.inline_steps;
  }
  EXPECT_GT(fired, 40000u);
  EXPECT_GT(inline_steps, 2000u);
}

}  // namespace
}  // namespace srm::sim
