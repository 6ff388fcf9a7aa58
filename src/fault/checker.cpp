#include "fault/checker.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

namespace srm::fault {

namespace {

// Width of invariant 2's sliding window, in seconds.
constexpr double kStormWindow = 1.0;

// (member, ADU name) — the unit invariant 1 is judged on.
using LossKey = std::array<std::uint64_t, 5>;

struct LossRecord {
  double detected_at = 0.0;
  bool recovered = false;
  double recovered_at = 0.0;
  bool abandoned = false;
};

std::string format_seconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

CheckerReport RecoveryInvariantChecker::check(
    const std::vector<trace::Event>& events,
    const std::vector<FaultInjector::Window>& windows,
    double end_of_trace) const {
  CheckerReport report;

  // ---- fold the trace ------------------------------------------------------
  // std::map keys losses in (member, ADU) order so the report's violation
  // list is deterministic regardless of hash seeding.
  std::map<LossKey, LossRecord> losses;
  std::unordered_map<std::uint64_t, std::vector<double>> departures;
  std::vector<double> send_times;   // request + repair transmissions
  std::vector<double> adapt_times;  // adaptive-parameter updates

  for (const trace::Event& ev : events) {
    switch (ev.type) {
      case trace::EventType::kSrmLoss: {
        LossRecord& rec = losses[{ev.actor, ev.a, ev.b, ev.c, ev.d}];
        rec.detected_at = ev.t;  // re-detection restarts the clock
        rec.recovered = false;
        rec.abandoned = false;
        break;
      }
      case trace::EventType::kSrmRecovered: {
        LossRecord& rec = losses[{ev.actor, ev.a, ev.b, ev.c, ev.d}];
        rec.recovered = true;
        rec.recovered_at = ev.t;
        rec.abandoned = false;
        break;
      }
      case trace::EventType::kSrmAbandoned:
        losses[{ev.actor, ev.a, ev.b, ev.c, ev.d}].abandoned = true;
        break;
      case trace::EventType::kSrmReqSend:
      case trace::EventType::kSrmRepSend:
        send_times.push_back(ev.t);
        break;
      case trace::EventType::kSrmAdaptReq:
      case trace::EventType::kSrmAdaptRep:
        adapt_times.push_back(ev.t);
        break;
      case trace::EventType::kFaultCrash:
      case trace::EventType::kFaultLeave:
        departures[ev.actor].push_back(ev.t);
        break;
      default:
        break;
    }
  }

  // ---- invariant 1: eventual repair ---------------------------------------
  std::vector<FaultInjector::Window> sorted_windows = windows;
  std::sort(sorted_windows.begin(), sorted_windows.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });

  // Effective deadline for a loss detected at t: the base deadline, pushed
  // past every overlapping disruption window (one forward pass suffices —
  // extending the deadline only pulls in windows with later starts).
  const auto effective_deadline = [&](double detected_at,
                                      bool* unhealed) -> double {
    double eff = detected_at + options_.deadline;
    *unhealed = false;
    for (const FaultInjector::Window& w : sorted_windows) {
      if (w.start >= eff) break;
      if (w.end <= detected_at) continue;  // closed before the loss
      if (std::isinf(w.end)) {
        *unhealed = true;
        return eff;
      }
      eff = std::max(eff, w.end + options_.deadline);
    }
    return eff;
  };

  const auto departed_after = [&](std::uint64_t member, double t) {
    const auto it = departures.find(member);
    if (it == departures.end()) return false;
    for (double d : it->second) {
      if (d >= t) return true;
    }
    return false;
  };

  for (const auto& [key, rec] : losses) {
    ++report.losses;
    if (rec.recovered) {
      ++report.recovered;
      report.recovery_latencies.push_back(rec.recovered_at - rec.detected_at);
    }
    bool unhealed = false;
    const double eff = effective_deadline(rec.detected_at, &unhealed);
    if (rec.recovered && rec.recovered_at <= eff) continue;  // in time
    if (!rec.recovered && departed_after(key[0], rec.detected_at)) {
      ++report.exempt_departed;
      continue;
    }
    if (unhealed) {
      ++report.exempt_unhealed;
      continue;
    }
    if (eff > end_of_trace) {
      ++report.pending_past_trace;
      continue;
    }
    UnrecoveredLoss v;
    v.member = key[0];
    v.source = key[1];
    v.page_creator = key[2];
    v.page_number = key[3];
    v.seq = key[4];
    v.detected_at = rec.detected_at;
    v.deadline_at = eff;
    v.abandoned = rec.abandoned;
    report.unrecovered.push_back(v);
  }

  // ---- invariant 2: no repair storms --------------------------------------
  std::sort(send_times.begin(), send_times.end());
  std::size_t j = 0;
  for (std::size_t i = 0; i < send_times.size(); ++i) {
    if (j < i) j = i;
    while (j < send_times.size() &&
           send_times[j] < send_times[i] + kStormWindow) {
      ++j;
    }
    const std::size_t count = j - i;
    if (count > report.worst_window_count) {
      report.worst_window_count = count;
      report.worst_window_start = send_times[i];
    }
    if (count > options_.storm_budget) ++report.storm_violations;
  }

  // ---- invariant 3: continued adaptation ----------------------------------
  if (options_.require_adaptation) {
    std::sort(adapt_times.begin(), adapt_times.end());
    for (const FaultInjector::Window& w : sorted_windows) {
      bool losses_after = false;
      for (const auto& [key, rec] : losses) {
        if (rec.detected_at > w.start) {
          losses_after = true;
          break;
        }
      }
      if (!losses_after) continue;
      const bool adapted =
          std::upper_bound(adapt_times.begin(), adapt_times.end(), w.start) !=
          adapt_times.end();
      if (!adapted) ++report.adaptation_failures;
    }
  }

  report.passed = report.unrecovered.empty() &&
                  report.storm_violations == 0 &&
                  report.adaptation_failures == 0;
  return report;
}

std::string CheckerReport::summary() const {
  std::string out;
  out += passed ? "recovery invariants: PASS\n" : "recovery invariants: FAIL\n";
  out += "  losses detected:      " + std::to_string(losses) + "\n";
  out += "  recovered:            " + std::to_string(recovered) + "\n";
  out += "  exempt (departed):    " + std::to_string(exempt_departed) + "\n";
  out += "  exempt (unhealed):    " + std::to_string(exempt_unhealed) + "\n";
  out += "  pending past trace:   " + std::to_string(pending_past_trace) +
         "\n";
  out += "  unrecovered:          " + std::to_string(unrecovered.size()) +
         "\n";
  for (const UnrecoveredLoss& v : unrecovered) {
    out += "    member " + std::to_string(v.member) + " adu(" +
           std::to_string(v.source) + "," + std::to_string(v.page_creator) +
           "," + std::to_string(v.page_number) + "," + std::to_string(v.seq) +
           ") detected " + format_seconds(v.detected_at) + "s deadline " +
           format_seconds(v.deadline_at) + "s" +
           (v.abandoned ? " [abandoned]" : "") + "\n";
  }
  out += "  storm violations:     " + std::to_string(storm_violations) +
         " (worst window " + std::to_string(worst_window_count) +
         " sends at " + format_seconds(worst_window_start) + "s)\n";
  out += "  adaptation failures:  " + std::to_string(adaptation_failures) +
         "\n";
  return out;
}

}  // namespace srm::fault
