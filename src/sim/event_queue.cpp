#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace srm::sim {

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->handle_pending(slot_, generation_);
}

bool EventHandle::cancel() {
  return queue_ != nullptr && queue_->handle_cancel(slot_, generation_);
}

bool EventQueue::handle_pending(std::uint32_t index,
                                std::uint32_t generation) const {
  if (index >= slot_count_) return false;
  const Slot& s = slot(index);
  return s.live && s.generation == generation;
}

bool EventQueue::handle_cancel(std::uint32_t index, std::uint32_t generation) {
  if (!handle_pending(index, generation)) return false;
  if (tracer_->wants(trace::Category::kSim)) {
    trace::Event ev;
    ev.type = trace::EventType::kSimCancel;
    ev.t = now_;
    ev.a = index;
    ev.b = generation;
    tracer_->emit(ev);
  }
  release_slot(index);
  --live_;
  // The heap entry stays behind as a tombstone; its generation no longer
  // matches the slot's, so prune_top()/pop skip it lazily.
  return true;
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if ((slot_count_ & (kSlabSize - 1)) == 0) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
  }
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.live = false;
  ++s.generation;       // invalidates outstanding handles and heap tombstones
  s.fn = nullptr;       // destroy the closure (and anything it keeps alive)
  free_slots_.push_back(index);
}

void EventQueue::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_top() {
  const std::size_t n = heap_.size() - 1;
  heap_[0] = heap_[n];
  heap_.pop_back();
  if (n > 1) sift_down(0);
}

EventHandle EventQueue::schedule_at(Time t, std::function<void()> fn) {
  return schedule_at_seq(t, next_seq_++, std::move(fn));
}

EventHandle EventQueue::schedule_at_seq(Time t, std::uint64_t seq,
                                        std::function<void()> fn) {
  // A NaN time compares false against everything and would silently break
  // the heap order, so non-finite times are rejected along with past ones.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("EventQueue::schedule_at: non-finite time");
  }
  if (t < now_) {
    throw std::invalid_argument("EventQueue::schedule_at: time in the past");
  }
  if (!fn) {
    throw std::invalid_argument("EventQueue::schedule_at: empty function");
  }
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.live = true;
  heap_.push_back(HeapEntry{t, seq, index, s.generation});
  sift_up(heap_.size() - 1);
  ++live_;
  if (tracer_->wants(trace::Category::kSim)) {
    trace::Event ev;
    ev.type = trace::EventType::kSimSchedule;
    ev.t = now_;
    ev.a = index;
    ev.b = s.generation;
    ev.x = t;
    tracer_->emit(ev);
  }
  return EventHandle(this, index, s.generation);
}

EventHandle EventQueue::schedule_after(Time dt, std::function<void()> fn) {
  if (!std::isfinite(dt) || dt < 0.0) {
    throw std::invalid_argument(
        "EventQueue::schedule_after: negative or non-finite delay");
  }
  return schedule_at(now_ + dt, std::move(fn));
}

bool EventQueue::prune_top() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Slot& s = slot(top.slot);
    if (s.live && s.generation == top.generation) return true;
    pop_top();
  }
  return false;
}

void EventQueue::run_top() {
  const HeapEntry top = heap_.front();
  pop_top();
  now_ = top.when;
  if (tracer_->wants(trace::Category::kSim)) {
    trace::Event ev;
    ev.type = trace::EventType::kSimFire;
    ev.t = now_;
    ev.a = top.slot;
    ev.b = top.generation;
    tracer_->emit(ev);
  }
  // Move the closure out and release the slot before running, so the event
  // body can schedule new events (possibly reusing this very slot).
  std::function<void()> fn = std::move(slot(top.slot).fn);
  release_slot(top.slot);
  --live_;
  ++executed_total_;
  fn();
}

bool EventQueue::pop_and_run_one() {
  if (!prune_top()) return false;
  run_top();
  return true;
}

std::size_t EventQueue::run() {
  stopped_ = false;
  std::size_t executed = 0;
  while (!stopped_ && pop_and_run_one()) ++executed;
  return executed;
}

std::size_t EventQueue::run_until(Time t_end) {
  stopped_ = false;
  std::size_t executed = 0;
  while (!stopped_ && prune_top() && heap_.front().when <= t_end) {
    run_top();
    ++executed;
  }
  if (!stopped_ && now_ < t_end) now_ = t_end;
  return executed;
}

std::size_t EventQueue::run_before(Time t_end) {
  stopped_ = false;
  std::size_t executed = 0;
  while (!stopped_ && prune_top() && heap_.front().when < t_end) {
    run_top();
    ++executed;
  }
  return executed;
}

Time EventQueue::next_event_time() {
  if (!prune_top()) return std::numeric_limits<Time>::infinity();
  return heap_.front().when;
}

void EventQueue::advance_to(Time t) {
  if (t <= now_) return;
  if (prune_top() && heap_.front().when < t) {
    throw std::logic_error(
        "EventQueue::advance_to: pending event earlier than target time");
  }
  now_ = t;
}

std::size_t EventQueue::run_steps(std::size_t max_events) {
  stopped_ = false;
  std::size_t executed = 0;
  while (!stopped_ && executed < max_events && pop_and_run_one()) ++executed;
  return executed;
}

void EventQueue::reset() {
  // Release every still-live slot so outstanding handles report
  // pending() == false (their stored generation no longer matches).
  for (const HeapEntry& e : heap_) {
    Slot& s = slot(e.slot);
    if (s.live && s.generation == e.generation) release_slot(e.slot);
  }
  heap_.clear();
  live_ = 0;
  now_ = 0.0;
  next_seq_ = 0;
  stopped_ = false;
}

}  // namespace srm::sim
