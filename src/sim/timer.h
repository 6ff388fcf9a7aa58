// A restartable one-shot timer bound to an EventQueue.
//
// SRM's request and repair timers are set, suppressed (cancelled), backed
// off (rescheduled), and re-armed many times per loss-recovery round; Timer
// wraps that lifecycle so protocol code never juggles raw EventHandles.
//
// Arming allocates nothing: the callback is stored once, in the Timer, and
// each scheduled event captures only the Timer's address, which fits
// std::function's local buffer.  The Timer keeps its own armed flag, so
// pending() reads a field rather than the queue's slot.
#pragma once

#include <functional>
#include <utility>

#include "sim/event_queue.h"

namespace srm::sim {

class Timer {
 public:
  // The callback runs on expiry.  The Timer must outlive any pending expiry;
  // owners cancel in their destructor (Timer's own destructor also cancels).
  Timer(EventQueue& queue, std::function<void()> on_expire)
      : queue_(&queue), on_expire_(std::move(on_expire)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() {
    if (alive_ != nullptr) *alive_ = false;
    cancel();
  }

  // (Re)schedules the timer to fire dt seconds from now.  Any pending expiry
  // is cancelled first.
  void schedule_in(Time dt) {
    cancel();
    expiry_ = queue_->now() + dt;
    handle_ = queue_->schedule_at(expiry_, [this] { expire(); });
    armed_ = true;
  }

  void cancel() {
    if (!armed_) return;
    armed_ = false;
    handle_.cancel();
  }

  bool pending() const { return armed_; }

  // Absolute virtual time of the pending expiry; meaningful only if
  // pending() is true (otherwise it is the last scheduled expiry).
  Time expiry_time() const { return expiry_; }

  // Time remaining until expiry; 0 if not pending.
  Time remaining() const {
    return pending() ? expiry_ - queue_->now() : 0.0;
  }

 private:
  // The expiry event's body.  The callback is moved out of the Timer for
  // the call, so a callback may destroy its own Timer (a protocol state
  // machine erasing its state on final expiry): the destructor then clears
  // `alive`, and the callback, still whole on this frame, is not moved back.
  // A surviving Timer gets it back, re-armed or not.
  void expire() {
    armed_ = false;
    struct Call {
      Timer* timer;
      std::function<void()> fn;
      bool alive = true;
      ~Call() {
        if (!alive) return;
        timer->alive_ = nullptr;
        timer->on_expire_ = std::move(fn);
      }
    } call{this, std::move(on_expire_)};
    alive_ = &call.alive;
    call.fn();
  }

  EventQueue* queue_;
  std::function<void()> on_expire_;
  EventHandle handle_;
  Time expiry_ = 0.0;
  bool* alive_ = nullptr;  // set while the callback runs
  bool armed_ = false;     // scheduled and neither fired nor cancelled
};

// A per-host virtual clock with a constant offset from simulation time.
// SRM's session-message distance estimation (Sec. III-A) must work without
// synchronized clocks; giving each host a distinct offset exercises that.
class LocalClock {
 public:
  LocalClock(const EventQueue& queue, Time offset)
      : queue_(&queue), offset_(offset) {}

  // The host's reading of "now": simulation time plus this host's skew.
  Time now() const { return queue_->now() + offset_; }
  Time offset() const { return offset_; }

 private:
  const EventQueue* queue_;
  Time offset_;
};

}  // namespace srm::sim
