// SRM configuration: the request/repair timer parameters of Sec. III-B, the
// adaptive-algorithm parameters of Sec. VII-A (Figs. 10-11), and framework
// policy knobs (session messaging, local recovery, rate limiting).
#pragma once

#include <cmath>

#include "sim/event_queue.h"

namespace srm {

// Request timers are drawn from uniform [C1*d_S, (C1+C2)*d_S] where d_S is
// the estimated one-way delay to the source of the missing data; repair
// timers from uniform [D1*d_A, (D1+D2)*d_A] where d_A is the distance to the
// requestor (Sec. III-B).
struct TimerParams {
  double c1 = 2.0;
  double c2 = 2.0;
  double d1 = 1.0;
  double d2 = 1.0;
};

// The paper's fixed-parameter settings for the Sec. V simulations:
// C1 = C2 = 2, D1 = D2 = log10(G) for a session of G members.
inline TimerParams paper_fixed_params(std::size_t group_size) {
  TimerParams p;
  p.c1 = 2.0;
  p.c2 = 2.0;
  const double lg = std::log10(static_cast<double>(group_size));
  p.d1 = lg;
  p.d2 = lg;
  return p;
}

// Bounds and step sizes of the adaptive adjustment algorithm (Sec. VII-A).
// The +0.1/-0.05 steps for C1/D1 and +0.5/-0.5 steps for C2/D2, the
// one-duplicate threshold (AveDups), and the EWMA weight 1/4 are from the
// paper's text; the min/max clamps reconstruct its Fig. 11.
struct AdaptiveParams {
  bool enabled = false;

  double target_dups = 1.0;    // AveDups
  double target_delay = 1.0;   // AveDelay, in units of RTT to the source
  double ewma_weight = 0.25;   // weight of the newest sample

  double start_increase = 0.1;    // C1/D1 += on too many duplicates
  double start_decrease = 0.05;   // C1/D1 -= when shrinking is safe
  double width_increase = 0.5;    // C2/D2 += on too many duplicates
  double width_decrease = 0.5;    // C2/D2 -= when delay is too high

  // Bounds (reconstructing Fig. 11).  The start parameters stay in a tight
  // band: deterministic suppression needs them small, and letting D1 drift
  // upward delays every repair (re-triggering requestors' backed-off timers
  // and spiralling).  The width parameters carry the spread that controls
  // duplicates, so they range much higher.
  double c1_min = 0.5, c1_max = 2.0;
  double c2_min = 1.0, c2_max = 200.0;
  double d1_min = 0.5, d1_max = 2.0;
  double d2_min = 1.0, d2_max = 200.0;

  // "Significantly further from the source" ratio used by the deterministic
  // suppression encouragement: a duplicate request from a member reporting a
  // distance greater than 1.5x our own lets us shrink C1.
  double farther_ratio = 1.5;
};

// How agents obtain inter-member distances.
enum class DistanceMode {
  // Ground-truth one-way path delays from the routing layer.  Matches the
  // paper's simulations, which assume converged estimates.
  kOracle,
  // Estimates learned from session-message timestamps (Sec. III-A); falls
  // back to `default_distance` for members not yet heard from.
  kEstimated,
};

struct SessionConfig {
  bool enabled = false;
  // Fraction of the aggregate data bandwidth allotted to session messages
  // (the paper suggests 5%).
  double bandwidth_fraction = 0.05;
  // Aggregate session data bandwidth estimate, bytes/second, used with
  // bandwidth_fraction to derive the average reporting interval.
  double data_bandwidth_bytes = 8000.0;
  // Lower bound on the mean interval between a member's session messages.
  sim::Time min_interval = 1.0;
  // Randomization spread: each interval is uniform in [0.5, 1.5] x mean,
  // which avoids synchronization of session messages across members.
  double jitter = 0.5;
  // Echo rotation (the vat/RTCP behavior the paper adopts): cap the echo
  // table of each outgoing session message at this many peers, rotating
  // through the membership across messages so every peer is still echoed
  // once per ceil(G/K) messages.  Keeps session messages O(K) instead of
  // O(G) in very large groups at the cost of slower estimate convergence.
  // 0 (the default) echoes every heard peer — bit-identical to the
  // historical behavior.
  std::size_t echo_rotation = 0;
};

struct LocalRecoveryConfig {
  bool enabled = false;
  // Two-step repairs (Sec. VII-B.3): first a repair at the request's TTL to
  // reach the requestor, then the requestor re-multicasts at that same TTL.
  // When false, one-step repairs are sent with TTL = request TTL + hops.
  bool two_step = true;
};

// Coded repair (srm/fec; ARCHITECTURE.md §11): generation size and the
// adaptive parity-budget hysteresis.  The budget knobs mirror
// fec::BudgetConfig; FecSession copies them across so the whole FEC layer is
// configured from the one SrmConfig the harness already threads everywhere.
struct FecConfig {
  bool enabled = false;
  // Data ADUs per generation.  Small generations bound reconstruction
  // latency (a parity only helps once the generation seals); the default
  // matches the loss-round harness's two sends per round.
  std::size_t generation_size = 2;
  std::size_t max_k = 4;              // ceiling on parity ADUs (<= 4)
  std::size_t initial_k = 1;          // starting budget (XOR fast path)
  std::size_t raise_threshold = 2;    // evidence per generation to raise K
  std::size_t decay_after_quiet = 3;  // quiet generations before K decays
  std::size_t burst_floor = 2;        // min K during a Gilbert-Elliott burst
};

// Hierarchical session messages (Sec. IX-A; ARCHITECTURE.md §12): members
// report with TTL-limited scope, one representative per local area (the
// lowest live Source-ID) aggregates into global session messages carrying a
// per-area digest.  When enabled, the harness drives reporting through
// srm::SessionHierarchy (batched timer wheels, struct-of-arrays liveness
// state sharded per area) instead of the agent's flat session schedule.  An
// agent's DistanceEstimator then hears, and keeps records for, only its area
// plus the representatives.
struct HierarchyConfig {
  bool enabled = false;
  // Scope of local session messages; must reach the representative.
  int local_ttl = 4;
  // Local-area count; 0 derives ~sqrt(member count) from the topology.
  std::uint32_t areas = 0;
  // Mean reporting interval (jittered below).
  sim::Time report_interval = 10.0;
  // A local peer not heard for this many intervals is presumed gone.
  double staleness_intervals = 3.0;
  // Each interval is uniform in [1-jitter, 1+jitter] x report_interval,
  // drawn statelessly keyed by (area, member slot, draw ordinal) so traces
  // stay bit-identical under the parallel kernel.
  double jitter = 0.5;
  // Timer-wheel buckets per report interval: expiries quantize to
  // report_interval / wheel_buckets, bounding live heap entries at
  // areas x wheel_buckets instead of one per member.
  std::uint32_t wheel_buckets = 8;
};

struct RateLimitConfig {
  bool enabled = false;
  double tokens_per_second = 1e9;  // token refill rate (bytes/second)
  double bucket_depth = 1e9;       // maximum burst (bytes)
};

struct SrmConfig {
  TimerParams timers;
  AdaptiveParams adaptive;
  SessionConfig session;
  LocalRecoveryConfig local_recovery;
  RateLimitConfig rate_limit;
  FecConfig fec;
  HierarchyConfig hierarchy;

  DistanceMode distance_mode = DistanceMode::kOracle;
  // Distance assumed for members we have no estimate for (kEstimated mode).
  double default_distance = 1.0;

  // Multiplicative request-timer backoff.  Sec. III-B describes doubling;
  // the adaptive simulations use 3 "so a single node that experiences a
  // packet loss" does not fire its backed-off timer before the repair
  // arrives (Sec. VII-A).
  double backoff_factor = 2.0;

  // The ignore-backoff heuristic of footnote 1: after backing off, ignore
  // further duplicate requests until halfway to the new expiry time.
  bool ignore_backoff_heuristic = true;

  // Hold-down: ignore requests for 3 * d_S seconds after sending or
  // receiving a repair for that data (Sec. III-B).
  double holddown_multiplier = 3.0;

  // Safety valve for pathological scenarios: a request that has backed off
  // this many times without a repair abandons recovery of that ADU.  An
  // abandoned ADU is not re-requested when further requests for it are
  // overheard (only actual arrival of the data clears the abandonment).
  int max_request_backoffs = 16;

  // Scope escalation (Sec. VII-B): when a locally-scoped request (TTL-
  // limited or admin-scoped) has gone unanswered through repeated backoffs,
  // subsequent requests for that ADU are sent with global scope.  The
  // threshold of two unanswered requests leaves room for the repair's
  // three-hop round trip (request + repair timer + repair) before widening.
  bool escalate_scope_on_backoff = true;
  int escalate_scope_after = 2;  // own unanswered requests before widening
};

}  // namespace srm
