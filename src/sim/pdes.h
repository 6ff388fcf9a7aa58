// Conservative parallel discrete-event kernel (region-partitioned PDES).
//
// One giant scenario is split into R regions, each owning a private
// EventQueue; worker threads execute regions concurrently inside safe
// windows derived from a lookahead bound.  Cross-region effects travel
// through inboxes owned by the subsystem that produces them (the multicast
// network's remote delivery chains), which per-region drain hooks merge in
// a deterministic order between windows.  The result is bit-identical for
// every worker count: threads only decide *who* executes a region's window,
// never *what* executes or in which order.
//
// Protocol (conservative with per-region asynchronous windows — a
// null-message-style lower-bound exchange evaluated at each barrier):
//   floors F_s = region s's next event time;  m_g = next global event time
//   window W_r = min(m_g,
//                    min over s != r of F_s + D(s, r),
//                    F_r + RT_r)   where RT_r = min over s != r of
//                                             D(r, s) + D(s, r)
//   1. run every region's drain hook (deterministic inbox merge)
//   2. if the global queue holds the earliest event, line every region
//      clock up to it and run the global events serially (a "global phase":
//      topology mutation, fault injection, harness control — anything that
//      must see a quiescent world)
//   3. otherwise run every region's events with timestamp < W_r in parallel
//      — each region gets its *own* bound, so a region far (in delay) from
//      the laggard may run deep ahead instead of idling at a global window
//   4. barrier; repeat until every queue is empty
//
// D(s, r) is a lower bound on the timestamp increment of any region-s to
// region-r message: by default the uniform `lookahead`, or the per-pair
// matrix installed by set_region_distances() (the metric closure of
// min cut-link delays over the static topology, so multi-hop relays are
// bounded too).  Safety argument: every future message into r originates
// from (a) a region event not yet executed — some region s at time >= F_s,
// arriving stamped >= F_s + D(s, r) >= W_r (for the network layer this
// holds structurally: any path into another region crosses the
// inter-region cut, and floating-point addition of non-negative delays is
// monotone; the network asserts it per remote chain); (b) a global event at
// >= m_g >= W_r; or (c) an *echo* of r's own window — an event of r at
// t >= F_r whose message wakes a peer whose consequent message returns,
// stamped >= t + D(r, s) + D(s, r) >= F_r + RT_r >= W_r (relays through
// more regions are no earlier, by the triangle inequality of the metric
// closure; echoes spanning later barriers are covered by (a), since the
// intermediate message raises those barriers' floors).  So nothing can
// arrive inside the window being executed and intra-window execution needs
// no synchronization at all.  Progress: the globally-earliest region's
// window strictly exceeds its floor (D > 0, RT > 0, and m_g > its floor on
// the window branch), so every round executes at least one event.
//
// Determinism rules (the "merged statistics stay bit-identical" argument):
//   - every region queue orders its events by (time, region-local seq), and
//     region-local execution is single-threaded, so a region is a
//     deterministic function of its inputs;
//   - windows are pure functions of the barrier-snapshot floors and the
//     static distance matrix, computed by the coordinator alone — worker
//     count never changes any W_r, only who executes each region;
//   - drain hooks run in region order with no region executing, and adopt
//     their inboxes in an order fixed by the messages alone (the network:
//     first arrival, origin region, origin seq), allocating destination
//     seqs in that order;
//   - global phases run before region events carrying the same timestamp
//     (global events are scheduled by setup/fault code whose sequential-
//     kernel seqs predate the run, so this matches the common case);
//   - worker assignment is invisible: a region's window is executed by
//     exactly one worker, and windows are separated by barriers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/event_queue.h"

namespace srm::sim {

class ParallelKernel {
 public:
  struct RunStats {
    std::uint64_t region_events = 0;  // events executed inside windows
    std::uint64_t global_events = 0;  // events executed in global phases
    std::uint64_t windows = 0;        // parallel windows executed
    std::uint64_t global_phases = 0;  // serialized phases executed
    std::uint64_t messages = 0;       // cross-region messages hooks adopted
  };

  // `lookahead` is the minimum timestamp increment of any region-to-region
  // message (for topologies: the minimum inter-region link delay).  It must
  // be > 0 unless regions == 1; +infinity is fine (fully independent
  // regions).
  ParallelKernel(std::size_t regions, double lookahead);
  ParallelKernel(const ParallelKernel&) = delete;
  ParallelKernel& operator=(const ParallelKernel&) = delete;

  std::size_t region_count() const { return queues_.size(); }

  // Installs the per-pair lower-bound matrix D used by the asynchronous
  // windows: d[s][r] bounds from below the timestamp increment of any
  // region-s to region-r message (+infinity for pairs that never talk).
  // Must be region_count() x region_count() with every off-diagonal entry
  // >= lookahead (the uniform bound it refines).  Optional: without it
  // every pair falls back to `lookahead`.
  void set_region_distances(std::vector<std::vector<double>> d);

  EventQueue& region_queue(std::size_t r) { return *queues_.at(r); }
  // Serialized control queue: fault injection, harness round driving, and
  // any other event that must observe a quiescent world belongs here.
  EventQueue& global_queue() { return global_; }

  // Latest clock over all queues.  Meaningful between runs (run() lines
  // every clock up before returning).
  Time now() const;

  // Lower bound D(from, to) on the timestamp increment of any message from
  // region `from` to region `to`: the installed matrix entry, or the
  // uniform lookahead.  A subsystem that hands work to another region from
  // a region event must stamp it at least this far past the sender's clock.
  double min_delay(std::size_t from, std::size_t to) const {
    return (dist_.empty() || from == to) ? lookahead_ : dist_[from][to];
  }

  // Registers a hook called for region r on every drain pass (between
  // windows, with no region executing).  It is the kernel's one
  // cross-region primitive: a subsystem keeps single-writer inboxes for its
  // own typed payloads (the multicast network's remote delivery chains) and
  // its hook schedules what arrived in a deterministic order, returning how
  // many messages it adopted (summed into RunStats::messages).
  void set_drain_hook(std::size_t r, std::function<std::uint64_t()> hook);

  // Runs until every queue is empty, or until the next event would be later
  // than t_end (events at exactly t_end still run; every clock is then
  // advanced to t_end, mirroring EventQueue::run_until).  `threads` is the
  // worker count: 1 executes regions serially on the calling thread, N > 1
  // spawns min(N, regions) workers.  The executed event sequence is
  // identical for every `threads` value.
  RunStats run(unsigned threads,
               Time t_end = std::numeric_limits<Time>::infinity());

  // Total events ever executed across all queues (global included).
  std::uint64_t executed_events() const;

  // Cumulative stats over every run() call.
  const RunStats& total_stats() const { return total_; }

 private:
  // Runs every region's drain hook; returns the messages they adopted.
  std::uint64_t drain_all();

  double lookahead_;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  EventQueue global_;
  // dist_[s][r]: per-pair delay lower bound (empty = uniform lookahead_).
  std::vector<std::vector<double>> dist_;
  std::vector<std::function<std::uint64_t()>> drain_hooks_;
  RunStats total_;
};

}  // namespace srm::sim
