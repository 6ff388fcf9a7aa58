// FaultInjector: executes a FaultPlan against a live simulated world.
//
// The injector schedules every plan event on the simulation event queue and,
// when each fires, mutates the world in a fixed order that keeps the
// simulation consistent:
//
//   link down:  invalidate in-flight deliveries crossing the link (they were
//               routed over the pre-failure trees), then take the link down;
//               routing's cached trees, the network's forest and oracle
//               distances revalidate lazily via Topology::version().
//   link up:    bring the link back; caches revalidate the same way.
//   partition:  take down every up link with exactly one endpoint in the
//               island, remembering the cut so heal() can restore exactly
//               those links (links already down are not part of the cut).
//
// Plan events that fire at the same instant are applied as one group, and
// within a group every contiguous run of link-cutting events (link downs
// and partitions) is applied in two phases: first the in-flight deliveries
// of *every* cut link are invalidated against the pre-failure trees, then
// the links are taken down back to back.  In-flight invalidation thus
// consults the trees the packets were actually routed over rather than
// trees partially rebuilt mid-cut.
//   heal:       bring the remembered cut back up.
//   join/leave/crash/rejoin:  delegated to MembershipHooks — the injector
//               deliberately knows nothing about agents; the harness wires
//               hooks that construct/stop SrmAgents (leave is graceful,
//               crash is silent, join and rejoin are identical at this
//               layer).
//   burst_on:   install a keyed GilbertElliottDrop in the network's fault
//               drop-policy slot (separate from the experiment's scripted
//               policy slot), seeded by (base seed, epoch ordinal);
//               burst_off clears it.
//
// Every applied event emits a fault-category trace event, which is how the
// RecoveryInvariantChecker (fault/checker.h) learns where the disruption
// windows lie.  Determinism: the plan is sorted by (time, plan order), burst
// policies are seeded by (base seed, epoch ordinal) rather than a consumed
// stream, and cut links are computed in link-id order.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "fault/plan.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace srm::fault {

// Callbacks into whatever owns the session members (the harness).  The
// injector calls join for kJoin/kRejoin and leave for kLeave (graceful=true)
// and kCrash (graceful=false).  Unset hooks make membership events no-ops.
struct MembershipHooks {
  std::function<void(net::NodeId)> join;
  std::function<void(net::NodeId, bool graceful)> leave;
};

class FaultInjector {
 public:
  struct Stats {
    std::uint64_t links_taken_down = 0;   // incl. partition cuts
    std::uint64_t links_brought_up = 0;   // incl. heals
    std::uint64_t partitions = 0;
    std::uint64_t heals = 0;
    std::uint64_t joins = 0;              // incl. rejoins
    std::uint64_t leaves = 0;
    std::uint64_t crashes = 0;
    std::uint64_t burst_epochs = 0;
  };

  // One connectivity-disruption interval: from the first fault opening a
  // disruption (link down / partition / burst on) until the last one closes
  // (end stays +infinity for disruptions never repaired).
  struct Window {
    double start = 0.0;
    double end = std::numeric_limits<double>::infinity();
  };

  // `topology` must be the same object `network` forwards over.  The rng is
  // collapsed to a single base seed at construction; each burst epoch's
  // GilbertElliottDrop is seeded by keyed_u64(base, epoch ordinal), so fault
  // plans replay bit-identically regardless of how epochs interleave with
  // other events (no shared stream to consume in order).  Everything else in
  // the injector is deterministic replay of the plan.
  FaultInjector(sim::EventQueue& queue, net::Topology& topology,
                net::MulticastNetwork& network, FaultPlan plan,
                util::Rng rng);

  void set_membership_hooks(MembershipHooks hooks) {
    hooks_ = std::move(hooks);
  }
  // Observes Gilbert-Elliott burst epochs as they are applied (burst_on ->
  // active=true with the epoch's parameters, burst_off -> active=false).
  // The FEC layer uses this to floor its parity budget during bursts
  // (ARCHITECTURE.md §11); deterministic because plan application runs on
  // the serialized event queue in plan order.
  using EpochObserver =
      std::function<void(bool active, const net::GilbertElliottDrop::Params&)>;
  void set_epoch_observer(EpochObserver observer) {
    epoch_observer_ = std::move(observer);
  }
  // Never pass nullptr; &trace::Tracer::null() detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // Schedules every plan event on the queue.  Call once, before running the
  // simulation (all event times must be >= queue.now()).
  void arm();

  const FaultPlan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }
  // Closed and still-open disruption windows, in start order.  Stable once
  // the simulation has run past the last plan event.
  const std::vector<Window>& disruption_windows() const { return windows_; }

 private:
  void apply_group(const std::vector<FaultEvent>& events);
  void apply(const FaultEvent& event);
  // Two-phase application of events[begin, end): all link-cutting events,
  // invalidated together against the pre-failure trees before any link goes
  // down (one topology edit group per run).
  void apply_cut_run(const std::vector<FaultEvent>& events, std::size_t begin,
                     std::size_t end);
  // Takes one link down (stats + disruption window); callers are
  // responsible for having invalidated in-flight deliveries first.
  void down_link(net::LinkId link);
  void bring_link_up(net::LinkId link);
  void open_disruption();
  void close_disruption();
  void emit(trace::EventType type, std::uint64_t actor, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t c = 0, double x = 0.0,
            double y = 0.0);

  sim::EventQueue* queue_;
  net::Topology* topo_;
  net::MulticastNetwork* network_;
  FaultPlan plan_;
  std::uint64_t burst_seed_;     // base seed for per-epoch keyed GE seeds
  std::uint64_t burst_ordinal_ = 0;  // burst_on events applied so far
  MembershipHooks hooks_;
  EpochObserver epoch_observer_;
  trace::Tracer* tracer_ = &trace::Tracer::null();
  Stats stats_;

  bool armed_ = false;
  std::vector<std::vector<net::LinkId>> cuts_;  // per partition ordinal
  bool burst_active_ = false;
  // Disruption-window bookkeeping: a window is open while any disruption
  // (down link, unhealed partition, burst epoch) is active.
  int active_disruptions_ = 0;
  std::vector<Window> windows_;
};

}  // namespace srm::fault
