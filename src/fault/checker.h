// RecoveryInvariantChecker: asserts SRM's recovery guarantees over a trace.
//
// The paper's core robustness claim is that loss recovery keeps working
// through network dynamics: "as long as one member has a copy of the data,
// it is available to the group" and the protocol adapts rather than
// collapsing under churn (Sec. III, VII-A).  This checker folds a structured
// trace (trace/trace.h) — srm-category recovery events plus fault-category
// disruption events — into a pass/fail report over three invariants:
//
//   1. Eventual repair: every loss detected at a member that survives to the
//      end of the trace is recovered within `deadline` seconds — where the
//      clock pauses across disruption windows (an open partition cannot be
//      recovered across; the deadline restarts when the last overlapping
//      window closes).  Losses at members that crash or leave before their
//      deadline are exempt, as are losses whose (extended) deadline falls
//      beyond the end of the trace (run longer to judge them).
//   2. No repair storms: the total rate of request + repair transmissions
//      never exceeds `storm_budget` packets in any one-second sliding
//      window.
//   3. Continued adaptation (optional): after each disruption window with
//      subsequent losses, the adaptive timer machinery keeps producing
//      parameter updates (at least one adapt_req/adapt_rep event).
//
// The checker is pure analysis: feed it the events captured by any sink
// (VectorSink live, or read_jsonl/read_binary from a file) plus the
// injector's disruption windows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "trace/trace.h"

namespace srm::fault {

struct CheckerOptions {
  // Seconds allowed between loss detection and recovery, measured outside
  // disruption windows as described above.
  double deadline = 100.0;
  // Packets allowed in any one-second window by invariant 2.
  std::size_t storm_budget = 200;
  // Invariant 3 (off by default: scenarios with adaptation disabled or no
  // post-fault losses would fail vacuously).
  bool require_adaptation = false;
};

// One invariant-1 violation.
struct UnrecoveredLoss {
  std::uint64_t member = 0;  // SourceId of the detecting member
  std::uint64_t source = 0;  // ADU name (src, page creator/number, seq)
  std::uint64_t page_creator = 0;
  std::uint64_t page_number = 0;
  std::uint64_t seq = 0;
  double detected_at = 0.0;
  double deadline_at = 0.0;  // effective (window-extended) deadline
  bool abandoned = false;    // the agent gave up (vs. silently pending)
};

struct CheckerReport {
  bool passed = false;

  // Invariant 1 accounting.
  std::size_t losses = 0;                 // detections considered
  std::size_t recovered = 0;
  std::size_t exempt_departed = 0;        // member crashed/left first
  std::size_t exempt_unhealed = 0;        // disruption never closed
  std::size_t pending_past_trace = 0;     // deadline beyond end of trace
  std::vector<UnrecoveredLoss> unrecovered;

  // Invariant 2 accounting.
  std::size_t storm_violations = 0;       // windows over budget
  std::size_t worst_window_count = 0;     // max sends in any window
  double worst_window_start = 0.0;

  // Invariant 3 accounting.
  std::size_t adaptation_failures = 0;    // epochs with losses but no update

  // Per-recovery latencies (detection -> recovered, seconds), in trace
  // order.  Bench harnesses take percentiles of this.
  std::vector<double> recovery_latencies;

  // Multi-line human-readable summary.
  std::string summary() const;
};

class RecoveryInvariantChecker {
 public:
  explicit RecoveryInvariantChecker(CheckerOptions options = {})
      : options_(options) {}

  // Analyzes a complete trace.  `windows` are the injector's disruption
  // windows (pass {} when no faults were injected); `end_of_trace` is the
  // virtual time the simulation ran to (used to classify losses whose
  // deadline lies beyond the observed trace).
  CheckerReport check(const std::vector<trace::Event>& events,
                      const std::vector<FaultInjector::Window>& windows,
                      double end_of_trace) const;

  const CheckerOptions& options() const { return options_; }

 private:
  CheckerOptions options_;
};

}  // namespace srm::fault
