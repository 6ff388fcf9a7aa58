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
// ready queue is a 4-ary heap of small POD entries.  Handles are
// generation-stamped (queue pointer, slot index, generation): cancelling or
// firing an event frees its slot and bumps its generation, so stale handles
// become inert without any shared-ownership bookkeeping.  A handle must not
// be used after its EventQueue has been destroyed (in practice handles are
// owned by agents that the queue outlives, e.g. inside a SimSession).
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

  // Runs events until the queue is empty or stop() is called.
  // Returns the number of events executed.
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
  // Lazily prunes cancelled tombstones off the heap top.
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
  // invalidates any handle (and any stale heap entry) still pointing at it.
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
  // Cancelled and fired events leave their entry behind as a tombstone (its
  // generation no longer matches the slot's), popped lazily off the top.
  // A fired event's entry stays at the root while its body runs, and the
  // first event the body schedules is written over it and sifted down: one
  // sift per delivery chain step or timer re-arm, not a pop's and a push's.
  // Pop order is the strict total order (when, seq) whatever the heap's
  // shape, so the simulation executes identically either way.
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
  // False for a tombstone: a cancelled or fired event's entry.
  bool entry_live(const HeapEntry& e) const {
    return handle_pending(e.slot, e.generation);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes the top heap entry (live or tombstone) and restores heap order.
  void pop_top();

  // Drops cancelled entries off the top; returns false if no live event.
  bool prune_top();
  // Fires the top event, leaving its entry at the root as a tombstone;
  // requires prune_top() to have returned true.
  void run_top();
  bool pop_and_run_one();

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  std::uint32_t slot_count_ = 0;  // slots ever allocated (all slabs)
  std::size_t live_ = 0;          // scheduled minus cancelled/fired
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_total_ = 0;
  bool stopped_ = false;
  trace::Tracer* tracer_ = &trace::Tracer::null();
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->handle_pending(slot_, generation_);
}

}  // namespace srm::sim
