// Hierarchical (scalable) session messages — the Sec. IX-A extension, as
// the primary scaling mechanism for G = 5k-50k member sessions
// (ARCHITECTURE.md §12).
//
// "For larger groups, we are investigating a hierarchical approach for
// scalable session messages, where members in a local area dynamically
// select one of the local members to be the representative...  The
// representatives would each send global session messages, and maintain an
// estimate of their distance in seconds from each of the other
// representatives.  All other members would send local session messages
// with limited scope sufficient to reach their representative."
//
// Election is leaderless and deterministic: among the live members of a
// local area (itself included) the one with the smallest Source-ID is the
// representative.  Ties resolve identically everywhere, membership changes
// re-elect automatically as stale peers age out, and the loss of a
// representative is healed after one staleness interval.  A member that has
// not yet heard any local peer reports locally rather than claiming the
// role (see tick()) — otherwise the session's first interval would be G
// global reports, an O(G^2) cold-start flood.
//
// This is the session-level coordinator (one per SimSession, not one per
// agent).  Scaling rests on three structural choices:
//
//   1. Struct-of-arrays liveness, sharded per area: each member's peer
//      state is dense vectors indexed by its area's member slot (last-heard
//      stamp, last-report seq), sized by ITS OWN area only, plus an
//      AreaLiveTable of per-area digests — O(area + areas) per member, not
//      O(G), and written only by that member's own event queue (the
//      parallel-kernel single-writer rule).
//   2. Batched timer wheels (sim/timer_wheel.h): all reports of one
//      (area, interval-bucket) share one heap entry, so event-heap
//      occupancy grows with areas x buckets, not members.
//   3. Stateless keyed jitter: every report interval is drawn by
//      util::keyed_unit(seed, area, slot, ordinal) — no shared RNG stream,
//      so hierarchy traces are bit-identical across --kernel-threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/timer_wheel.h"
#include "srm/agent.h"
#include "srm/config.h"
#include "srm/session.h"

namespace srm {

class SessionHierarchy {
 public:
  // A local peer not heard for this many report intervals is presumed gone.
  static constexpr double kStalenessIntervals = 3.0;

  // `area_count` is the number of local areas the topology was partitioned
  // into (harness::SimSession derives it with net::partition_regions).
  // `seed` keys the stateless jitter draws.
  SessionHierarchy(MemberDirectory& directory, const HierarchyConfig& config,
                   std::uint32_t area_count, std::uint64_t seed);
  ~SessionHierarchy();

  SessionHierarchy(const SessionHierarchy&) = delete;
  SessionHierarchy& operator=(const SessionHierarchy&) = delete;

  // Registers `agent` as a member of `area` and chains its session-message
  // hook.  The agent must be bound in the directory (i.e. started).  Its
  // own flat session schedule should be disabled (SessionConfig::enabled =
  // false) when a hierarchy drives reporting.  Must only be called while no
  // event is executing in parallel (setup, or a serialized global phase).
  void attach(SrmAgent& agent, std::uint32_t area);

  // Unchains the hook and lazily cancels the member's pending wheel item
  // (the item's epoch goes stale).  Same phase restrictions as attach().
  // A member that re-attaches (re-join) keeps its area slot.
  void detach(SrmAgent& agent);

  // Schedules the first (staggered) report of every attached member.
  void start();
  // Stops reporting: cancels every wheel bucket.  start() re-arms.
  void stop();
  bool running() const { return running_; }

  // --- introspection ------------------------------------------------------

  std::uint32_t area_count() const { return area_count_; }
  std::uint32_t area_of(const SrmAgent& agent) const;

  // The member `agent` currently believes represents its local area: the
  // smallest Source-ID among the area's live members (itself included).
  SourceId representative_of(const SrmAgent& agent) const;
  bool is_representative(const SrmAgent& agent) const {
    return representative_of(agent) == agent.id();
  }

  // Local-area peers `agent` heard within the staleness horizon (excluding
  // itself).
  std::size_t live_local_peers(const SrmAgent& agent) const;

  // Whole-group size estimate: the member's own area's live count plus the
  // live counts of every fresh area digest it heard from representatives.
  std::size_t estimated_group_size(const SrmAgent& agent) const;

  // Session-wide report totals, summed on demand over every member that
  // ever attached (a member's record and counts outlive its detach).  Each
  // member's counters are written only by its own region's worker, so no
  // counter is shared between parallel-kernel workers.
  std::uint64_t global_reports_sent() const;
  std::uint64_t local_reports_sent() const;
  std::uint64_t global_reports_sent(const SrmAgent& agent) const;
  std::uint64_t local_reports_sent(const SrmAgent& agent) const;

  // Live heap entries across all timer wheels (the occupancy evidence the
  // scaling bench records: bounded by areas x wheel_buckets, not members).
  std::size_t pending_wheel_buckets() const;
  std::size_t pending_wheel_items() const;

 private:
  struct Member {
    SrmAgent* agent = nullptr;   // null while detached
    std::uint32_t dense = 0;     // directory member-index slot
    std::uint32_t area = 0;
    std::uint32_t slot = 0;      // index into areas_[area].member_dense
    std::uint32_t epoch = 0;     // bumped per attach; stale items ignored
    std::uint64_t ordinal = 0;   // jitter draw counter
    std::uint64_t local_sent = 0;
    std::uint64_t global_sent = 0;
    bool heard_local = false;  // gates the cold-start representative claim
    bool attached = false;
    SrmAgent::AppHooks previous_hooks;

    // SoA slices over this member's OWN area, indexed by area slot.
    std::vector<sim::Time> last_heard;   // last local report heard
    std::vector<SeqNo> last_report_seq;  // reports heard from that slot
    AreaLiveTable area_table;            // digests heard from reps
    SessionMessage::AreaDigests digest_scratch;
  };

  struct AreaInfo {
    std::vector<std::uint32_t> member_dense;  // slot -> dense member id
  };

  const Member* member_of(const SrmAgent& agent) const;
  Member& ensure_member(SrmAgent& agent, std::uint32_t area);
  void on_session(Member& m, const SessionMessage& msg,
                  const net::DeliveryInfo& info);
  void tick(Member& m);
  void schedule_tick(Member& m, bool initial);
  SourceId elect(const Member& m, sim::Time now) const;
  std::uint32_t count_live(const Member& m, sim::Time now,
                           SeqNo* max_seq_out) const;
  sim::BatchTimerWheel& wheel_for(sim::EventQueue& queue);
  void on_wheel_item(std::uint64_t item);
  sim::Time staleness_horizon() const {
    return kStalenessIntervals * config_.report_interval;
  }

  MemberDirectory* directory_;
  HierarchyConfig config_;
  std::uint32_t area_count_;
  std::uint64_t seed_;
  bool running_ = false;

  // Dense member id -> state.  unique_ptr keeps Member addresses stable
  // across attach-time growth (hook closures capture the pointer).  Grown
  // and structurally mutated only from serialized phases; the per-member
  // payloads are written only by that member's own region queue.
  std::vector<std::unique_ptr<Member>> members_;
  std::vector<AreaInfo> areas_;
  // One wheel per event queue (one queue sequentially; one per region under
  // the parallel kernel).  std::map for deterministic iteration order in
  // the introspection sums.
  std::map<sim::EventQueue*, std::unique_ptr<sim::BatchTimerWheel>> wheels_;
};

}  // namespace srm
