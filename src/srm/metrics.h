// Per-agent protocol counters and the per-loss measurements the paper's
// figures are built from: requests/repairs per loss (the "duplicates" axes
// of Figs. 3-8 and 12-14) and per-member recovery delay normalized by the
// RTT to the source (the "delay" axes).  These are the aggregate view; the
// per-event view of the same facts is the srm trace category
// (trace/trace.h), and tests cross-check that the two agree
// (trace::RecoveryTimeline totals == summed AgentMetrics).
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "srm/names.h"
#include "util/stats.h"

namespace srm {

struct AgentMetrics {
  // Message counts (sent by this agent).
  std::uint64_t data_sent = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t repairs_sent = 0;
  std::uint64_t session_sent = 0;

  // Messages heard from others.
  std::uint64_t requests_heard = 0;
  std::uint64_t repairs_heard = 0;

  // Loss recovery.
  std::uint64_t losses_detected = 0;
  std::uint64_t recoveries = 0;            // losses repaired
  std::uint64_t recovery_abandoned = 0;    // gave up after max backoffs
  // Names and state entries heard more than SrmAgent::kMaxSeqReveal past
  // the end of what this member knew of their stream, and ignored.
  std::uint64_t far_names_ignored = 0;

  // Coded repair (srm/fec): parity ADUs this agent originated and losses it
  // reconstructed locally from parity instead of requesting.
  std::uint64_t fec_parity_sent = 0;
  std::uint64_t fec_reconstructions = 0;

  // Per-recovery delay: loss detection -> first repair received, in seconds
  // and in units of this member's RTT to the data's original source.
  util::Samples recovery_delay_seconds;
  util::Samples recovery_delay_rtt;

  // Request delay (Sec. VI): timer set -> first request sent by anyone,
  // in RTT units to the source of the missing data.
  util::Samples request_delay_rtt;
  // Repair delay: repair timer set -> first repair sent by anyone, in RTT
  // units to the requestor the timer was computed from.
  util::Samples repair_delay_rtt;

  // Duplicates observed within this member's own request/repair periods.
  std::uint64_t dup_requests_heard = 0;
  std::uint64_t dup_repairs_heard = 0;

  void clear() { *this = AgentMetrics{}; }
};

}  // namespace srm
