#include "srm/adaptive.h"

#include <algorithm>

namespace srm {

AdaptiveTuner::AdaptiveTuner(const AdaptiveParams& params, double start,
                             double width)
    : params_(params),
      start_(start),
      width_(width),
      ave_dups_(kEwmaWeight),
      ave_delay_(kEwmaWeight) {
  // Initial values are taken as configured; the Fig. 11 bounds constrain
  // the *adaptation*, not the application's chosen fixed parameters (which
  // may legitimately sit outside them, e.g. C2 = 0 for deterministic
  // timers on a chain).
}

void AdaptiveTuner::end_period(std::size_t duplicates_in_period) {
  ave_dups_.update(static_cast<double>(duplicates_in_period));
}

void AdaptiveTuner::record_delay(double delay_in_rtt) {
  ave_delay_.update(delay_in_rtt);
}

void AdaptiveTuner::adapt_on_timer_set(bool was_recent_sender) {
  if (!ave_dups_.seeded()) return;  // no history yet
  // "Too high" is strictly above the threshold: an average of exactly one
  // duplicate (the AveDups target) is the intended operating point, not a
  // reason to keep widening.
  if (ave_dups_.value() > params_.target_dups) {
    // Too many duplicates: widen the interval.  Increasing the width is the
    // primary lever; the start moves a little to add deterministic spread.
    start_ += kStartIncrease;
    width_ += kWidthIncrease;
  } else if (ave_delay_.seeded() &&
             ave_delay_.value() > params_.target_delay) {
    // Duplicates are under control but we are slow: tighten.  The width
    // shrink mirrors the widen condition so the equilibrium at
    // ave_dups == target is drift-free.
    if (ave_dups_.value() < params_.target_dups) {
      width_ -= kWidthDecrease;
    }
    // The paper "only decreases C1 for members who have sent requests, or
    // when the average number of duplicates is already small".
    if (was_recent_sender || ave_dups_.value() < params_.target_dups / 4.0) {
      start_ -= kStartDecrease;
    }
  }
  clamp();
}

void AdaptiveTuner::on_sent() {
  // "One mechanism for encouraging deterministic suppression is for members
  // to reduce C1 after they send a request": frequent requestors are likely
  // close to the point of failure, so let them keep firing first.
  start_ -= kStartDecrease;
  clamp();
}

void AdaptiveTuner::on_duplicate_from_farther(double our_distance,
                                              double their_distance) {
  if (their_distance > kFartherRatio * our_distance) {
    start_ -= kStartDecrease;
    clamp();
  }
}

void AdaptiveTuner::clamp() {
  start_ = std::clamp(start_, kStartMin, kStartMax);
  width_ = std::clamp(width_, kWidthMin, kWidthMax);
}

}  // namespace srm
