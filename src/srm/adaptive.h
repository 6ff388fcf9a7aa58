// Adaptive adjustment of the request/repair timer parameters (Sec. VII-A,
// Figs. 9-11).
//
// Each member measures, over its own loss-recovery history,
//   ave_dup  - EWMA of the number of duplicate requests (repairs) seen per
//              request (repair) period, and
//   ave_delay- EWMA of the delay from setting the timer until a request
//              (repair) was sent by anyone, in units of the RTT to the
//              source of the missing data,
// and nudges (C1, C2) (respectively (D1, D2)):
//   - too many duplicates        -> widen:  start += 0.1, width += 0.5
//   - few duplicates, high delay -> shrink: width -= 0.5, and start -= 0.05
//     when shrinking the start is safe (we have been a requestor recently,
//     or duplicates are well under target)
// plus two deterministic-suppression encouragements: a member shrinks its
// start parameter after it sends a request, and when a duplicate request
// arrives from a member reporting a distance > 1.5x its own.  All values are
// clamped to the Fig. 11 bounds.  Only the targets are configurable
// (AdaptiveParams); the steps, the EWMA weight and the clamps are the
// AdaptiveTuner constants below.  The exact pseudocode of Fig. 10 is not in
// the available text; this reconstruction uses the step sizes, thresholds
// and mechanisms the prose states, and is validated by reproducing the
// behavior of Figs. 13-14 (duplicates driven to ~1 within ~40 rounds).
#pragma once

#include "srm/config.h"
#include "util/stats.h"

namespace srm {

// One tuner instance adapts one (start, width) timer pair; an SRM agent owns
// two: one for request timers (C1, C2) and one for repair timers (D1, D2).
class AdaptiveTuner {
 public:
  // From the paper's text (Sec. VII-A): the EWMA weight 1/4, the +0.1/-0.05
  // steps for C1/D1 and the +0.5/-0.5 steps for C2/D2.
  static constexpr double kEwmaWeight = 0.25;     // weight of the newest sample
  static constexpr double kStartIncrease = 0.1;   // on too many duplicates
  static constexpr double kStartDecrease = 0.05;  // when shrinking is safe
  static constexpr double kWidthIncrease = 0.5;   // on too many duplicates
  static constexpr double kWidthDecrease = 0.5;   // when delay is too high
  // "Significantly further from the source" (Sec. VII-A): a duplicate
  // request from a member reporting a distance greater than 1.5x our own
  // lets us shrink C1.
  static constexpr double kFartherRatio = 1.5;

  // Clamps reconstructing Fig. 11, the same for (C1, C2) and (D1, D2).  The
  // start parameters stay in a tight band: deterministic suppression needs
  // them small, and letting D1 drift upward delays every repair
  // (re-triggering requestors' backed-off timers and spiralling).  The width
  // parameters carry the spread that controls duplicates, so they range much
  // higher.
  static constexpr double kStartMin = 0.5;
  static constexpr double kStartMax = 2.0;
  static constexpr double kWidthMin = 1.0;
  static constexpr double kWidthMax = 200.0;

  AdaptiveTuner(const AdaptiveParams& params, double start, double width);

  // --- measurement hooks -------------------------------------------------

  // A period ended (a new loss/request arrived for different data): fold the
  // duplicate count for the finished period into the average.
  void end_period(std::size_t duplicates_in_period);

  // A timer resolved (expired locally, or was first reset/cleared because
  // someone else acted): record the delay from timer-set to action, in RTT
  // units of the relevant source.
  void record_delay(double delay_in_rtt);

  // --- adaptation hooks ---------------------------------------------------

  // General adaptation performed when a new timer is set (Fig. 10).
  // `was_recent_sender` is true if this member sent a request/repair in the
  // current or previous period.
  void adapt_on_timer_set(bool was_recent_sender);

  // Deterministic-suppression encouragement: we just sent a request/repair.
  void on_sent();

  // We sent a request and then heard a duplicate from a member reporting
  // `their_distance` vs our `our_distance` to the source: if they are
  // significantly farther, shrink our start so we keep firing first.
  void on_duplicate_from_farther(double our_distance, double their_distance);

  // --- current values -----------------------------------------------------

  double start() const { return start_; }   // C1 or D1
  double width() const { return width_; }   // C2 or D2
  double ave_dups() const { return ave_dups_.value(); }
  double ave_delay() const { return ave_delay_.value(); }

 private:
  void clamp();

  AdaptiveParams params_;
  double start_;
  double width_;
  util::Ewma ave_dups_;
  util::Ewma ave_delay_;
};

}  // namespace srm
