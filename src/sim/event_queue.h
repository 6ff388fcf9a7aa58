// Discrete-event simulation kernel.
//
// The simulator advances a virtual clock from event to event; there is no
// relation to wall-clock time.  Time is measured in seconds of simulated
// time; the paper normalizes link delays to 1 "unit", which we represent as
// 1.0 second unless a scenario specifies otherwise.
//
// Events are closures scheduled at absolute times.  Scheduling returns an
// EventHandle that can cancel the event (used for SRM's suppressible
// request/repair timers).  Events at equal times fire in scheduling order
// (FIFO tie-break), which keeps runs deterministic.
//
// Implementation: events live in a slab-allocated pool of stable Slots
// (closure storage is reused across events, so a schedule/cancel/reschedule
// cycle costs no heap churn beyond what the closure itself needs).  The
// ready queue is a 4-ary heap of small POD entries holding exactly the
// pending events, plus the fired event's entry at the root while its body
// runs: cancelling an event takes its entry out of the heap at once.
// Handles are generation-stamped (queue pointer, slot index, generation):
// cancelling or firing an event frees its slot and bumps its generation, so
// stale handles become inert without any shared-ownership bookkeeping.  A
// handle must not be used after its EventQueue has been destroyed (in
// practice handles are owned by agents that the queue outlives, e.g. inside
// a SimSession).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "trace/trace.h"

namespace srm::sim {

using Time = double;  // seconds of virtual time

class EventQueue;

// Handle to a scheduled event.  Default-constructed handles are inert.
// Cancelling an already-fired or already-cancelled event is a no-op.
// Copies share the underlying event: cancelling through one copy makes
// every copy report pending() == false.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;
  // Cancels the event if still pending; returns true if it was pending.
  bool cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Time now() const { return now_; }

  // Schedules fn at absolute virtual time t (finite, >= now()).
  EventHandle schedule_at(Time t, std::function<void()> fn);
  // Schedules fn after dt seconds of virtual time (finite, >= 0).
  EventHandle schedule_after(Time dt, std::function<void()> fn);

  // Reserves n consecutive FIFO tie-break sequence numbers and returns the
  // first.  Together with schedule_at_seq this lets a caller fix the
  // tie-break order of a batch of future events up front and insert each
  // entry lazily (the network's per-multicast delivery chains): pop order
  // is the strict total order (when, seq) either way, so a lazily inserted
  // entry fires exactly when the eagerly scheduled one would have.
  std::uint64_t allocate_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }
  // Schedules fn at time t (finite, >= now()) with a sequence number
  // previously reserved via allocate_seqs().  Each reserved seq may be used
  // at most once; reusing one breaks the queue's strict ordering.
  EventHandle schedule_at_seq(Time t, std::uint64_t seq,
                              std::function<void()> fn);

  // True when (t, seq), a key reserved via allocate_seqs() with t >= now(),
  // is exactly the event the running loop would execute next: the loop is
  // not stopped, t is inside its bound (run_until's t_end inclusive,
  // run_before's exclusive) and its run_steps budget is not spent, (t, seq)
  // is earlier than every pending event, and the queue does not trace
  // `sim`.  Then the clock moves to t and the event counts in
  // executed_events() and in the loop's return value, and the caller runs
  // its body at once instead of scheduling it: a delivery chain executes
  // its receivers back to back without a heap entry each.  Legal only from
  // an event body that this queue's own loop runs; anywhere else it
  // returns false.
  bool run_inline(Time t, std::uint64_t seq);

  // Runs events until the queue is empty or stop() is called.
  // Returns the number of events executed, run_inline()'s included.  Run
  // loops do not nest: one called from an event body throws
  // std::logic_error.
  std::size_t run();
  // Runs events with timestamp <= t_end, then sets now() to t_end.
  std::size_t run_until(Time t_end);
  // Runs events with timestamp strictly < t_end and leaves now() at the
  // last executed event (NOT t_end).  This is the conservative-PDES window
  // primitive: a region executes its safe window [floor, t_end) without
  // claiming to have reached t_end, so the merged end-of-run clock equals
  // the last event time the sequential kernel would report.
  std::size_t run_before(Time t_end);
  // Runs at most max_events events.
  std::size_t run_steps(std::size_t max_events);

  // Timestamp of the earliest pending event, or +infinity when empty.
  // Pops a fired event's entry off the heap top first.
  Time next_event_time();

  // Moves the clock forward to t (no-op if now() >= t) without executing
  // anything.  Requires that no pending event is earlier than t; used by the
  // PDES coordinator to line region clocks up before a serialized global
  // phase and at end of run.
  void advance_to(Time t);

  // Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  bool empty() const { return live_ == 0; }
  std::size_t pending_events() const { return live_; }

  // Total events executed over the queue's lifetime; benches use this for
  // events/s accounting.
  std::uint64_t executed_events() const { return executed_total_; }

  // Structured tracing (sim category: sched/fire/cancel with slot+generation
  // handle ids).  Never pass nullptr; pass &trace::Tracer::null() to detach.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

 private:
  friend class EventHandle;

  // Closure storage.  Slots live in fixed-size slabs so they never move;
  // a slot's generation is bumped every time it is released, which
  // invalidates any handle still pointing at it.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 0;
    bool live = false;  // scheduled and not yet fired/cancelled
  };
  static constexpr std::uint32_t kSlabBits = 10;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;

  // Heap entries are small PODs: sifting moves 24 bytes, never a closure.
  // The heap is 4-ary rather than binary: half the sift depth, and the four
  // children of a node share a cache line pair, which matters when a burst
  // of multicast deliveries holds tens of thousands of pending events.
  // Every entry is a pending event's but one: a fired event's entry stays
  // at the root while its body runs (root_fired_), and the first event the
  // body schedules is written over it and sifted down: one sift per timer
  // re-arm or queued chain step, not a pop's and a push's.  A cancelled
  // event's entry leaves at once: the heap's last entry fills its place and
  // sifts up or down, so the heap never carries dead timers.  Pop order is
  // the strict total order (when, seq) whatever the heap's shape, so the
  // simulation executes identically either way.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  Slot& slot(std::uint32_t index) {
    return slabs_[index >> kSlabBits][index & (kSlabSize - 1)];
  }
  const Slot& slot(std::uint32_t index) const {
    return slabs_[index >> kSlabBits][index & (kSlabSize - 1)];
  }
  bool handle_pending(std::uint32_t index, std::uint32_t generation) const {
    // Only acquired slots are ever handed out, and slots are never freed.
    const Slot& s = slot(index);
    return s.live && s.generation == generation;
  }
  bool handle_cancel(std::uint32_t index, std::uint32_t generation);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  // Writes e at heap position i and records i as its slot's position.
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Takes the entry at position i out of the heap and restores heap order.
  void remove_at(std::size_t i);

  // Pops the fired event's entry, if it is still at the root; returns false
  // if no event is pending.
  bool prune_top();
  // Fires the top event, leaving its entry at the root; requires
  // prune_top() to have returned true.
  void run_top();

  // Sets the loop's bound for run_inline() and clears it on exit.
  class RunScope;

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> heap_pos_;  // by slot: a pending event's entry
  bool root_fired_ = false;  // heap_.front() is the fired event's entry
  std::uint32_t slot_count_ = 0;  // slots ever allocated (all slabs)
  std::size_t live_ = 0;          // scheduled minus cancelled/fired
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_total_ = 0;
  bool stopped_ = false;
  // The running loop's bound: run_inline() admits events before
  // inline_before_ while executed_total_ < inline_budget_.  Outside a loop
  // the budget is 0, which admits nothing.
  bool in_loop_ = false;
  Time inline_before_ = 0.0;
  std::uint64_t inline_budget_ = 0;
  trace::Tracer* tracer_ = &trace::Tracer::null();
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->handle_pending(slot_, generation_);
}

}  // namespace srm::sim
