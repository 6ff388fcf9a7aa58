// SRM configuration: the request/repair timer parameters of Sec. III-B, the
// adaptive algorithm's targets (Sec. VII-A), and framework policy knobs
// (session messaging, local recovery, rate limiting).  Values the paper
// fixes and no program varies are constants in the module that reads them.
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

// Targets of the adaptive adjustment algorithm (Sec. VII-A, Figs. 10-11).
// Its step sizes, EWMA weight and Fig. 11 clamps are fixed by the paper and
// live beside the algorithm as AdaptiveTuner constants (srm/adaptive.h).
struct AdaptiveParams {
  bool enabled = false;

  double target_dups = 1.0;    // AveDups
  double target_delay = 1.0;   // AveDelay, in units of RTT to the source
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
  // Echo rotation (the vat/RTCP behavior the paper adopts): cap the echo
  // table of each outgoing session message at this many peers, rotating
  // through the membership across messages so every peer is still echoed
  // once per ceil(G/K) messages.  Keeps session messages O(K) instead of
  // O(G) in very large groups at the cost of slower estimate convergence.
  // 0 (the default) echoes every heard peer — bit-identical to the
  // historical behavior.
  std::size_t echo_rotation = 0;
};

// Local recovery within the session group (Sec. VII-B.3).  When enabled, a
// TTL-scoped request is answered by a two-step repair: first at the
// request's TTL to reach the requestor, then the requestor re-multicasts at
// that same TTL.
struct LocalRecoveryConfig {
  bool enabled = false;
};

// Coded repair (srm/fec; ARCHITECTURE.md §11): generation size and the
// adaptive parity budget's ceiling, start and decay (the raise threshold
// and burst floor are fec::ParityBudgetController constants).  The FEC
// layer is on wherever a program wraps an agent in a fec::FecSession.
struct FecConfig {
  // Data ADUs per generation.  Small generations bound reconstruction
  // latency (a parity only helps once the generation seals); the default
  // matches the loss-round harness's two sends per round.
  std::size_t generation_size = 2;
  std::size_t max_k = 4;              // ceiling on parity ADUs (<= 4)
  std::size_t initial_k = 1;          // starting budget (XOR fast path)
  std::size_t decay_after_quiet = 3;  // quiet generations before K decays
};

// Hierarchical session messages (Sec. IX-A; ARCHITECTURE.md §12): members
// report with TTL-limited scope, one representative per local area (the
// lowest live Source-ID) aggregates into global session messages carrying a
// per-area digest.  When enabled, the harness drives reporting through
// srm::SessionHierarchy (batched timer wheels, one liveness record per
// slot of the member's own area) instead of the agent's flat session
// schedule.  An
// agent's DistanceEstimator then hears, and keeps records for, only its area
// plus the representatives.
struct HierarchyConfig {
  bool enabled = false;
  // Scope of local session messages; must reach the representative.
  int local_ttl = 4;
  // Local-area count; 0 derives ~sqrt(member count) from the topology.
  std::uint32_t areas = 0;
  // Mean reporting interval; SessionHierarchy jitters each draw, ages out
  // peers after a fixed number of intervals and batches expiries into a
  // fixed number of timer-wheel buckets per interval.
  sim::Time report_interval = 10.0;
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
};

// Hold-down: ignore requests for 3 * d_S seconds after sending or receiving
// a repair for that data (Sec. III-B).  The agent enforces it and the
// conformance fold (fault/conformance.h) checks it, so both read this one
// constant.
inline constexpr double kHolddownMultiplier = 3.0;

}  // namespace srm
