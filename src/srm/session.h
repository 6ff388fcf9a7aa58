// Session messages: distance estimation and reporting-rate control
// (Sec. III-A).
//
// Each member periodically multicasts a session message carrying (a) its
// reception state (highest sequence number per active stream on the page it
// is viewing), and (b) timestamps that let every other member estimate its
// one-way distance to the sender without synchronized clocks, via a
// "highly simplified version of the NTP time synchronization algorithm":
//
//   A sends at A-clock t1.  B receives it and, delta seconds later (B-clock),
//   sends a session message echoing (t1, delta).  A receives that at A-clock
//   t2 and estimates  d(A,B) = (t2 - t1 - delta) / 2.
//
// The estimate assumes roughly symmetric paths (the paper's assumption).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/timer.h"
#include "srm/config.h"
#include "srm/messages.h"
#include "srm/names.h"
#include "util/rng.h"

namespace srm {

// Per-peer state is one record per peer this member has heard, in a vector
// sorted by Source-ID: memory is O(peers heard), not O(session size) — in
// hierarchy mode that is the member's own area plus the representatives
// (ARCHITECTURE.md §12).  Folding in a session message is a binary search
// plus plain stores (an O(H) insert only on the first message from a new
// peer); the echo table for the next outgoing message is one in-order walk
// of the same vector, so it comes out sorted with no per-entry allocations.
class DistanceEstimator {
 public:
  // `clock` is this member's (possibly skewed) local clock.
  explicit DistanceEstimator(const sim::LocalClock& clock) : clock_(&clock) {}

  // Records the receipt of a session message from `peer`, and folds in any
  // echo addressed to us.
  void on_session_message(const SessionMessage& msg, SourceId self);

  // Fills `out` (cleared; capacity retained) with the echoes to embed in
  // our next outgoing session message: for every peer we have heard from,
  // (their last timestamp, how long we have held it), ascending Source-ID.
  //
  // `max_echoes` > 0 caps the table at that many peers, rotating through
  // the membership across successive calls (the vat/RTCP behavior the
  // paper adopts; SessionConfig::echo_rotation) so every peer is still
  // echoed once per ceil(G/K) messages.  0 echoes everyone.
  void build_echoes(SessionMessage::Echoes& out, std::size_t max_echoes = 0);

  // Convenience wrapper for tests and small sessions.
  SessionMessage::Echoes build_echoes(std::size_t max_echoes = 0) {
    SessionMessage::Echoes out;
    build_echoes(out, max_echoes);
    return out;
  }

  // Latest distance estimate to `peer` in seconds, if any exchange has
  // completed.
  std::optional<double> distance(SourceId peer) const;

  // Number of peers heard from (session-message based membership estimate).
  std::size_t peers_heard() const { return heard_.size(); }

 private:
  struct Peer {
    SourceId id = 0;
    bool has_estimate = false;
    sim::Time peer_timestamp = 0.0;  // sender clock value in their message
    sim::Time arrival = 0.0;         // our clock when it arrived
    double estimate = 0.0;

    // Orders records against a Source-ID key for binary search.
    friend bool operator<(const Peer& p, SourceId id) { return p.id < id; }
  };

  const sim::LocalClock* clock_;
  std::vector<Peer> heard_;          // ascending by Source-ID
  std::size_t rotation_cursor_ = 0;  // next echo-rotation window start
};

// Per-area digest state for two-level reporting (Sec. IX-A;
// ARCHITECTURE.md §12).  Each member folds the AreaDigest tables heard in
// representatives' global session messages into dense per-area vectors
// (live count, freshness watermark, arrival stamp), giving it a whole-group
// size estimate at O(areas) memory — it never tracks remote members
// individually.  Also builds the digest table a representative embeds in
// its own global reports.
class AreaLiveTable {
 public:
  explicit AreaLiveTable(std::uint32_t areas = 0) { resize(areas); }

  void resize(std::uint32_t areas);
  std::uint32_t areas() const {
    return static_cast<std::uint32_t>(live_.size());
  }

  // Folds a received digest table; `now` stamps freshness.
  void fold(const SessionMessage::AreaDigests& digests, sim::Time now);

  // Sum of live_members over every area other than `self_area` whose digest
  // arrived within `horizon` of `now`.
  std::size_t live_elsewhere(std::uint32_t self_area, sim::Time now,
                             sim::Time horizon) const;

  // Fills `out` (cleared; capacity retained) with this member's own-area
  // digest.  Representatives summarize only the area they can observe
  // directly; every other area's digest reaches the group from that area's
  // own representative, so relaying would only add O(areas^2) fold work.
  static void build_digests(SessionMessage::AreaDigests& out,
                            std::uint32_t self_area, std::uint32_t self_live,
                            SeqNo self_max_seq);

 private:
  std::vector<std::uint32_t> live_;
  std::vector<SeqNo> max_seq_;
  std::vector<sim::Time> heard_;
  std::vector<std::uint8_t> has_;
};

// Schedules session messages at an average rate that scales inversely with
// the (estimated) group size, so the aggregate session-message bandwidth
// stays at a fixed small fraction of the data bandwidth regardless of how
// many members there are (the vat/RTCP algorithm the paper adopts).
class SessionScheduler {
 public:
  SessionScheduler(const SessionConfig& config, util::Rng rng)
      : config_(config), rng_(std::move(rng)) {}

  // Mean interval between this member's session messages given the current
  // estimate of the group size: with G members sharing fraction f of
  // bandwidth B, each member reports every  G * avg_msg_bytes / (f * B)
  // seconds on average, floored at min_interval.
  sim::Time mean_interval(std::size_t group_size,
                          std::size_t message_bytes) const;

  // Next randomized interval: uniform in [1-jitter, 1+jitter] x mean.
  sim::Time next_interval(std::size_t group_size, std::size_t message_bytes);

 private:
  SessionConfig config_;
  util::Rng rng_;
};

}  // namespace srm
