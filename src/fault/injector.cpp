#include "fault/injector.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace srm::fault {

FaultInjector::FaultInjector(sim::EventQueue& queue, net::Topology& topology,
                             net::MulticastNetwork& network, FaultPlan plan,
                             util::Rng rng)
    : queue_(&queue),
      topo_(&topology),
      network_(&network),
      plan_(std::move(plan)),
      burst_seed_(rng.next_u64()),
      cuts_(plan_.partition_count()) {
  if (&network.topology() != &topology) {
    throw std::invalid_argument(
        "FaultInjector: network is not built on this topology");
  }
}

namespace {

// Throws naming `event` and the `what` id it names past the topology's
// `count`.
[[noreturn]] void refuse(const FaultEvent& event, const char* what,
                         std::size_t id, std::size_t count) {
  std::ostringstream os;
  os << "fault plan: " << kind_name(event.kind) << " at " << event.at
     << " names " << what << ' ' << id << ", but the topology has " << count
     << ' ' << what << 's';
  throw std::invalid_argument(os.str());
}

}  // namespace

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector::arm: already armed");
  // An event naming a node or link the topology lacks would index past the
  // topology's tables when it fires, so the plan is refused whole before
  // anything is scheduled.
  const std::size_t nodes = topo_->node_count();
  const std::size_t links = topo_->link_count();
  for (const FaultEvent& e : plan_.events()) {
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
      case FaultEvent::Kind::kLinkUp:
        if (e.link >= links) refuse(e, "link", e.link, links);
        break;
      case FaultEvent::Kind::kPartition:
        for (const net::NodeId n : e.island) {
          if (n >= nodes) refuse(e, "node", n, nodes);
        }
        break;
      case FaultEvent::Kind::kJoin:
      case FaultEvent::Kind::kLeave:
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kRejoin:
        if (e.node >= nodes) refuse(e, "node", e.node, nodes);
        break;
      case FaultEvent::Kind::kHeal:
      case FaultEvent::Kind::kBurstOn:
      case FaultEvent::Kind::kBurstOff:
        break;
    }
  }
  armed_ = true;
  const double now = queue_->now();
  // Events that fire at the same instant are scheduled as one group, so a
  // partition plus same-time link churn becomes one topology edit group
  // (see apply_cut_run).  The plan was scheduled in sorted order before
  // this change, so grouping preserves the relative order of fault events
  // against every other same-time simulation event.
  const std::vector<FaultEvent> sorted = plan_.sorted();
  for (std::size_t i = 0; i < sorted.size();) {
    const double at = std::max(sorted[i].at, now);
    std::vector<FaultEvent> group;
    for (; i < sorted.size() && std::max(sorted[i].at, now) == at; ++i) {
      group.push_back(sorted[i]);
    }
    queue_->schedule_at(
        at, [this, group = std::move(group)] { apply_group(group); });
  }
}

void FaultInjector::apply_group(const std::vector<FaultEvent>& events) {
  const auto cuts_links = [](const FaultEvent& e) {
    return e.kind == FaultEvent::Kind::kLinkDown ||
           e.kind == FaultEvent::Kind::kPartition;
  };
  for (std::size_t i = 0; i < events.size();) {
    if (!cuts_links(events[i])) {
      apply(events[i]);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < events.size() && cuts_links(events[j])) ++j;
    apply_cut_run(events, i, j);
    i = j;
  }
}

void FaultInjector::emit(trace::EventType type, std::uint64_t actor,
                         std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         double x, double y) {
  if (!tracer_->wants(trace::Category::kFault)) return;
  trace::Event ev;
  ev.type = type;
  ev.t = queue_->now();
  ev.actor = actor;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.x = x;
  ev.y = y;
  tracer_->emit(ev);
}

void FaultInjector::open_disruption() {
  if (active_disruptions_++ == 0) {
    Window w;
    w.start = queue_->now();
    windows_.push_back(w);
  }
}

void FaultInjector::close_disruption() {
  if (--active_disruptions_ == 0) windows_.back().end = queue_->now();
}

void FaultInjector::down_link(net::LinkId link) {
  topo_->set_link_up(link, false);
  ++stats_.links_taken_down;
  open_disruption();
}

void FaultInjector::apply_cut_run(const std::vector<FaultEvent>& events,
                                  std::size_t begin, std::size_t end) {
  // Phase 1: resolve each event's link list against the pre-run topology
  // (treating links earlier events in the run will cut as already down) and
  // invalidate every affected in-flight delivery while the cached trees
  // still describe the pre-failure routes.
  std::vector<std::vector<net::LinkId>> downs(end - begin);
  std::vector<char> pending(topo_->link_count(), 0);
  for (std::size_t k = begin; k < end; ++k) {
    const FaultEvent& event = events[k];
    std::vector<net::LinkId>& list = downs[k - begin];
    if (event.kind == FaultEvent::Kind::kLinkDown) {
      if (topo_->link_up(event.link) && !pending[event.link]) {
        list.push_back(event.link);
      }
    } else {  // kPartition
      // The cut: every up link with exactly one endpoint in the island,
      // collected in link-id order (determinism).
      std::vector<bool> in_island(topo_->node_count(), false);
      for (net::NodeId n : event.island) in_island.at(n) = true;
      const auto& links = topo_->links();
      for (net::LinkId id = 0; id < links.size(); ++id) {
        if (!links[id].up || pending[id]) continue;
        if (in_island[links[id].a] != in_island[links[id].b]) {
          list.push_back(id);
        }
      }
      cuts_.at(event.partition_ordinal) = list;
    }
    for (net::LinkId id : list) {
      network_->invalidate_in_flight(id);
      pending[id] = 1;
    }
  }

  // Phase 2: mutate and narrate in event order, now that every cut link's
  // in-flight deliveries were invalidated against the pre-failure trees.
  for (std::size_t k = begin; k < end; ++k) {
    const FaultEvent& event = events[k];
    for (net::LinkId id : downs[k - begin]) down_link(id);
    if (event.kind == FaultEvent::Kind::kLinkDown) {
      const net::Link& l = topo_->link(event.link);
      emit(trace::EventType::kFaultLinkDown, 0, event.link, l.a, l.b);
    } else {
      ++stats_.partitions;
      emit(trace::EventType::kFaultPartition, 0, event.partition_ordinal,
           downs[k - begin].size());
    }
  }
}

void FaultInjector::bring_link_up(net::LinkId link) {
  if (topo_->link_up(link)) return;  // already up
  topo_->set_link_up(link, true);
  ++stats_.links_brought_up;
  close_disruption();
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultEvent::Kind::kLinkDown:
    case FaultEvent::Kind::kPartition:
      // Link-cutting events always route through apply_cut_run so their
      // in-flight invalidation stays ahead of every topology mutation.
      apply_cut_run(std::vector<FaultEvent>{event}, 0, 1);
      break;
    case FaultEvent::Kind::kLinkUp: {
      const net::Link& l = topo_->link(event.link);
      bring_link_up(event.link);
      emit(trace::EventType::kFaultLinkUp, 0, event.link, l.a, l.b);
      break;
    }
    case FaultEvent::Kind::kHeal: {
      const std::vector<net::LinkId>& cut = cuts_.at(event.partition_ordinal);
      for (net::LinkId id : cut) bring_link_up(id);
      ++stats_.heals;
      emit(trace::EventType::kFaultHeal, 0, event.partition_ordinal,
           cut.size());
      break;
    }
    case FaultEvent::Kind::kJoin:
    case FaultEvent::Kind::kRejoin: {
      if (hooks_.join) hooks_.join(event.node);
      ++stats_.joins;
      emit(event.kind == FaultEvent::Kind::kJoin
               ? trace::EventType::kFaultJoin
               : trace::EventType::kFaultRejoin,
           event.node);
      break;
    }
    case FaultEvent::Kind::kLeave: {
      if (hooks_.leave) hooks_.leave(event.node, /*graceful=*/true);
      ++stats_.leaves;
      emit(trace::EventType::kFaultLeave, event.node);
      break;
    }
    case FaultEvent::Kind::kCrash: {
      if (hooks_.leave) hooks_.leave(event.node, /*graceful=*/false);
      ++stats_.crashes;
      emit(trace::EventType::kFaultCrash, event.node);
      break;
    }
    case FaultEvent::Kind::kBurstOn: {
      // Epoch seeds are keyed by the burst ordinal (deterministic: plan
      // application is serialized on the event queue in plan order), not
      // forked off a shared stream — an epoch's loss pattern is a pure
      // function of (base seed, ordinal) no matter what else ran before it.
      network_->set_fault_drop_policy(
          std::make_shared<net::GilbertElliottDrop>(
              event.burst,
              util::keyed_u64(burst_seed_, burst_ordinal_++, 0, 0)));
      if (!burst_active_) {
        burst_active_ = true;
        open_disruption();
      }
      ++stats_.burst_epochs;
      if (epoch_observer_) epoch_observer_(true, event.burst);
      emit(trace::EventType::kFaultBurstOn, 0,
           static_cast<std::uint64_t>(event.burst.loss_good * 1e6),
           static_cast<std::uint64_t>(event.burst.loss_bad * 1e6), 0,
           event.burst.p_good_bad, event.burst.p_bad_good);
      break;
    }
    case FaultEvent::Kind::kBurstOff: {
      if (burst_active_) {
        network_->set_fault_drop_policy(nullptr);
        burst_active_ = false;
        close_disruption();
        if (epoch_observer_) epoch_observer_(false, {});
      }
      emit(trace::EventType::kFaultBurstOff, 0);
      break;
    }
  }
}

}  // namespace srm::fault
