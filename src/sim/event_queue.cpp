#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace srm::sim {

namespace {
constexpr Time kInf = std::numeric_limits<Time>::infinity();
constexpr std::uint64_t kNoBudget = std::numeric_limits<std::uint64_t>::max();
}  // namespace

class EventQueue::RunScope {
 public:
  RunScope(EventQueue& q, Time before, std::uint64_t budget) : q_(q) {
    if (q.in_loop_) {
      throw std::logic_error("EventQueue: run loops do not nest");
    }
    q.in_loop_ = true;
    q.stopped_ = false;
    q.inline_before_ = before;
    q.inline_budget_ = budget;
  }
  ~RunScope() {
    q_.in_loop_ = false;
    q_.inline_budget_ = 0;
  }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  EventQueue& q_;
};

bool EventHandle::cancel() {
  return queue_ != nullptr && queue_->handle_cancel(slot_, generation_);
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
  remove_at(heap_pos_[index]);
  release_slot(index);
  --live_;
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
    heap_pos_.resize(heap_pos_.size() + kSlabSize);
  }
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.live = false;
  ++s.generation;       // invalidates outstanding handles
  s.fn = nullptr;       // destroy the closure (and anything it keeps alive)
  free_slots_.push_back(index);
}

void EventQueue::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
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
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void EventQueue::remove_at(std::size_t i) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = last;
  // Every pending entry sorts after a fired root, so a sift up stops
  // below it.
  if (i > 0 && earlier(last, heap_[(i - 1) >> 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
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
  const HeapEntry entry{t, seq, index, s.generation};
  if (root_fired_) {
    // The event firing right now (run_top): the new entry takes its place,
    // and one sift down restores the heap.
    root_fired_ = false;
    heap_.front() = entry;
    sift_down(0);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
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

bool EventQueue::run_inline(Time t, std::uint64_t seq) {
  if (stopped_ || !(t < inline_before_) || executed_total_ >= inline_budget_ ||
      !(t >= now_) || tracer_->wants(trace::Category::kSim)) {
    return false;
  }
  const HeapEntry e{t, seq, 0, 0};
  if (root_fired_) {
    // The fired root bounds nothing pending; each child bounds its subtree.
    const std::size_t end = std::min<std::size_t>(heap_.size(), 5);
    for (std::size_t c = 1; c < end; ++c) {
      if (!earlier(e, heap_[c])) return false;
    }
  } else if (!heap_.empty() && !earlier(e, heap_.front())) {
    return false;
  }
  now_ = t;
  ++executed_total_;
  return true;
}

bool EventQueue::prune_top() {
  if (root_fired_) {
    root_fired_ = false;
    remove_at(0);
  }
  return !heap_.empty();
}

void EventQueue::run_top() {
  // No pop: the root stays as the fired event's entry, which the body's
  // first schedule overwrites or prune_top() pops.
  const HeapEntry top = heap_.front();
  root_fired_ = true;
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

std::size_t EventQueue::run() {
  const RunScope scope(*this, kInf, kNoBudget);
  const std::uint64_t start = executed_total_;
  while (!stopped_ && prune_top()) run_top();
  return executed_total_ - start;
}

std::size_t EventQueue::run_until(Time t_end) {
  const RunScope scope(*this, std::nextafter(t_end, kInf), kNoBudget);
  const std::uint64_t start = executed_total_;
  while (!stopped_ && prune_top() && heap_.front().when <= t_end) run_top();
  if (!stopped_ && now_ < t_end) now_ = t_end;
  return executed_total_ - start;
}

std::size_t EventQueue::run_before(Time t_end) {
  const RunScope scope(*this, t_end, kNoBudget);
  const std::uint64_t start = executed_total_;
  while (!stopped_ && prune_top() && heap_.front().when < t_end) run_top();
  return executed_total_ - start;
}

Time EventQueue::next_event_time() {
  if (!prune_top()) return kInf;
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
  const std::uint64_t start = executed_total_;
  const RunScope scope(
      *this, kInf,
      max_events < kNoBudget - start ? start + max_events : kNoBudget);
  while (!stopped_ && executed_total_ < inline_budget_ && prune_top()) {
    run_top();
  }
  return executed_total_ - start;
}

}  // namespace srm::sim
