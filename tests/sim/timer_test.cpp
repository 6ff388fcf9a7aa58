#include "sim/timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "util/rng.h"

// Every global operator new in this test binary is counted, so a test can
// read how many heap allocations a stretch of code made.  The nothrow forms
// are replaced too, so that every form allocates and frees through the same
// malloc/free pair (a sanitizer runtime supplies its own forms otherwise).
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// Once one of these is inlined into a caller, GCC sees free() receive
// operator new's memory; here that is the replaced pair itself.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace srm::sim {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(TimerTest, FiresOnce) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] { ++fired; });
  t.schedule_in(2.0);
  EXPECT_TRUE(t.pending());
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(TimerTest, RescheduleReplacesPending) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] { ++fired; });
  t.schedule_in(2.0);
  t.schedule_in(5.0);  // supersedes the first
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(TimerTest, CancelStopsExpiry) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] { ++fired; });
  t.schedule_in(1.0);
  t.cancel();
  q.run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, ExpiryTimeAndRemaining) {
  EventQueue q;
  Timer t(q, [] {});
  t.schedule_in(4.0);
  EXPECT_DOUBLE_EQ(t.expiry_time(), 4.0);
  EXPECT_DOUBLE_EQ(t.remaining(), 4.0);
  q.run_until(1.0);
  EXPECT_DOUBLE_EQ(t.remaining(), 3.0);
}

TEST(TimerTest, RemainingZeroWhenIdle) {
  EventQueue q;
  Timer t(q, [] {});
  EXPECT_DOUBLE_EQ(t.remaining(), 0.0);
}

TEST(TimerTest, DestructorCancels) {
  EventQueue q;
  int fired = 0;
  {
    Timer t(q, [&] { ++fired; });
    t.schedule_in(1.0);
  }
  q.run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, SafeToDestroyFromOwnCallback) {
  // Protocol state machines erase their own state (and its timer) on final
  // expiry; the Timer contract allows destruction from inside the callback.
  EventQueue q;
  auto holder = std::make_shared<std::unique_ptr<Timer>>();
  int fired = 0;
  *holder = std::make_unique<Timer>(q, [&fired, holder] {
    ++fired;
    holder->reset();  // destroys the Timer that is currently firing
  });
  (*holder)->schedule_in(1.0);
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(holder->get(), nullptr);
}

TEST(TimerTest, RestartFromCallback) {
  EventQueue q;
  int fired = 0;
  Timer t(q, [&] {
    if (++fired < 3) t.schedule_in(1.0);
  });
  t.schedule_in(1.0);
  q.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(TimerTest, ArmingAllocatesNothing) {
  EventQueue q;
  int fired = 0;
  Timer* self = nullptr;
  // Four words of captures, as large as the agent's [this, name] closure:
  // std::function keeps them on the heap, so an arm that copied the
  // callback would allocate.
  const double delays[2] = {0.5, 1.5};
  Timer t(q, [&fired, &self, delays] {
    // Every other expiry re-arms from inside the callback.
    if (++fired % 2 == 1) self->schedule_in(delays[fired % 4 == 1 ? 0 : 1]);
  });
  self = &t;
  const auto cycle = [&] {
    t.schedule_in(1.0);
    t.cancel();
    t.schedule_in(2.0);
    q.run();
  };
  cycle();  // warm-up: the queue's slab, heap and free list reach their size
  const std::size_t before = allocations();
  for (int i = 0; i < 10000; ++i) cycle();
  const std::size_t made = allocations() - before;
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(fired, 2 * 10001);
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(q.pending_events(), 0u);
}

TEST(TimerTest, PendingAgreesWithQueue) {
  // A seeded script of schedules, cancels, expiries, re-arms and
  // destruction (from outside and from inside the callback) over several
  // timers.  A reference model predicts which timer fires next and when:
  // the earliest expiry, ties in arming order.
  constexpr std::size_t kTimers = 6;
  constexpr int kSteps = 20000;
  EventQueue q;
  util::Rng rng(2024);
  std::vector<std::unique_ptr<Timer>> timers(kTimers);
  struct Ref {
    bool armed = false;
    Time when = 0.0;
    std::uint64_t order = 0;  // arming order, the tie-break
  };
  std::vector<Ref> ref(kTimers);
  std::uint64_t arms = 0;
  std::size_t fired_index = kTimers;
  Time fired_at = -1.0;
  std::size_t self_destroyed = 0;
  std::size_t rearmed = 0;

  const auto draw_delay = [&rng] {
    return 0.5 * static_cast<double>(rng.uniform_int(0, 4));  // many ties
  };
  const auto arm = [&](std::size_t i, Time dt) {
    timers[i]->schedule_in(dt);
    ref[i] = Ref{true, q.now() + dt, ++arms};
  };
  const auto make = [&](std::size_t i) {
    timers[i] = std::make_unique<Timer>(q, [&, i] {
      fired_index = i;
      fired_at = q.now();
      switch (rng.uniform_int(0, 2)) {
        case 1:
          arm(i, draw_delay());
          ++rearmed;
          break;
        case 2:
          timers[i].reset();  // the firing Timer destroys itself
          ++self_destroyed;
          break;
        default:
          break;
      }
    });
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::size_t i = rng.index(kTimers);
    switch (rng.uniform_int(0, 4)) {
      case 0:
      case 1:
        if (!timers[i]) make(i);
        arm(i, draw_delay());
        break;
      case 2:
        if (timers[i]) timers[i]->cancel();
        ref[i].armed = false;
        break;
      case 3: {
        std::size_t next = kTimers;
        for (std::size_t k = 0; k < kTimers; ++k) {
          if (!ref[k].armed) continue;
          if (next == kTimers || ref[k].when < ref[next].when ||
              (ref[k].when == ref[next].when &&
               ref[k].order < ref[next].order)) {
            next = k;
          }
        }
        fired_index = kTimers;
        if (next == kTimers) {
          ASSERT_EQ(q.run_steps(1), 0u) << "step " << step;
          break;
        }
        const Time when = ref[next].when;
        ref[next].armed = false;
        ASSERT_EQ(q.run_steps(1), 1u) << "step " << step;
        ASSERT_EQ(fired_index, next) << "step " << step;
        ASSERT_EQ(fired_at, when) << "step " << step;
        break;
      }
      default:
        timers[i].reset();
        ref[i].armed = false;
        break;
    }
    std::size_t pending = 0;
    for (std::size_t k = 0; k < kTimers; ++k) {
      const bool armed = timers[k] && timers[k]->pending();
      ASSERT_EQ(armed, ref[k].armed) << "step " << step << " timer " << k;
      if (armed) {
        ++pending;
        ASSERT_EQ(timers[k]->expiry_time(), ref[k].when);
      }
    }
    ASSERT_EQ(pending, q.pending_events()) << "step " << step;
  }
  // The script reached every path it is meant to cover.
  EXPECT_GT(self_destroyed, 100u);
  EXPECT_GT(rearmed, 100u);
}

TEST(LocalClockTest, AppliesOffset) {
  EventQueue q;
  LocalClock c(q, 100.0);
  EXPECT_DOUBLE_EQ(c.now(), 100.0);
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_DOUBLE_EQ(c.now(), 105.0);
  EXPECT_DOUBLE_EQ(c.offset(), 100.0);
}

}  // namespace
}  // namespace srm::sim
