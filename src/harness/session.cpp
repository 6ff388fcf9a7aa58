#include "harness/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace srm::harness {

namespace {

// Automatic region count: one region per ~128 nodes, capped so tiny
// topologies stay sequential-ish and huge ones do not fragment the
// lookahead.  A pure function of the node count — never of thread count —
// so a given topology always produces the same region map.
std::uint32_t auto_region_count(std::size_t nodes) {
  const std::size_t r = nodes / 128;
  return static_cast<std::uint32_t>(std::clamp<std::size_t>(r, 1, 16));
}

}  // namespace

SimSession::SimSession(net::Topology topo,
                       std::vector<net::NodeId> member_nodes, Options options)
    : topo_(std::move(topo)),
      rng_(options.seed),
      options_(options),
      member_nodes_(std::move(member_nodes)) {
  if (options_.kernel_threads > 0) {
    const std::uint32_t target = options_.kernel_regions != 0
                                     ? options_.kernel_regions
                                     : auto_region_count(topo_.node_count());
    region_map_ = net::partition_regions(topo_, target);
    kernel_ = std::make_unique<sim::ParallelKernel>(region_map_.count,
                                                    region_map_.lookahead);
    if (region_map_.count > 1) {
      // Per-pair delay bounds widen the asynchronous windows beyond the
      // uniform lookahead for regions that are far apart in the topology.
      kernel_->set_region_distances(
          net::region_distance_matrix(topo_, region_map_));
    }
    nets_.reserve(region_map_.count);
    for (std::uint32_t r = 0; r < region_map_.count; ++r) {
      nets_.push_back(std::make_unique<net::MulticastNetwork>(
          kernel_->region_queue(r), topo_));
    }
    std::vector<net::MulticastNetwork*> peers;
    peers.reserve(nets_.size());
    for (auto& n : nets_) peers.push_back(n.get());
    for (std::uint32_t r = 0; r < region_map_.count; ++r) {
      nets_[r]->enable_pdes(kernel_.get(), &region_map_, r, peers);
    }
    // One trace lane per queue; components are wired to their lane up
    // front (mask zero = disabled) and set_tracer only flips masks.
    lanes_.reserve(region_map_.count + 1);
    for (std::uint32_t i = 0; i < region_map_.count + 1; ++i) {
      auto lane = std::make_unique<TraceLane>();
      lane->tracer.set_sink(&lane->sink);
      lanes_.push_back(std::move(lane));
    }
    kernel_->global_queue().set_tracer(&lanes_[0]->tracer);
    for (std::uint32_t r = 0; r < region_map_.count; ++r) {
      kernel_->region_queue(r).set_tracer(&lanes_[1 + r]->tracer);
      nets_[r]->set_tracer(&lanes_[1 + r]->tracer);
    }
  } else {
    region_map_.of.assign(topo_.node_count(), 0);
    region_map_.count = 1;
    nets_.push_back(std::make_unique<net::MulticastNetwork>(queue_, topo_));
  }

  if (options_.srm.hierarchy.enabled) {
    // Two-level reporting drives every member's schedule; the flat per-agent
    // session timer must not compete with it.
    options_.srm.session.enabled = false;
    // Local areas: an explicit count, or ~sqrt(G) so local fan-in and the
    // representative population grow together.
    const std::uint32_t target =
        options_.srm.hierarchy.areas != 0
            ? options_.srm.hierarchy.areas
            : static_cast<std::uint32_t>(std::max(
                  1.0, std::round(std::sqrt(static_cast<double>(
                           member_nodes_.size())))));
    area_map_ = net::partition_regions(topo_, target);
    // Local reports only need the sender's TTL radius of the tree, and
    // walking just that radius delivers what the full tree would.
    for (auto& n : nets_) n->set_scoped_walk(true);
    hierarchy_ = std::make_unique<SessionHierarchy>(
        directory_, options_.srm.hierarchy, area_map_.count, options_.seed);
  }

  agents_.reserve(member_nodes_.size());
  for (std::size_t i = 0; i < member_nodes_.size(); ++i) {
    const net::NodeId node = member_nodes_[i];
    auto agent = std::make_unique<SrmAgent>(
        net_of(node), directory_, node, /*id=*/static_cast<SourceId>(node),
        options_.group, options_.srm, rng_.fork());
    if (kernel_) agent->set_tracer(lane_tracer(node));
    agent->start();
    if (hierarchy_) hierarchy_->attach(*agent, area_map_.of[node]);
    index_of_[node] = i;
    agents_.push_back(std::move(agent));
  }
  if (hierarchy_) hierarchy_->start();
}

net::NetworkStats SimSession::network_stats() const {
  net::NetworkStats total;
  for (const auto& n : nets_) {
    const net::NetworkStats& s = n->stats();
    total.multicasts_sent += s.multicasts_sent;
    total.unicasts_sent += s.unicasts_sent;
    total.link_transmissions += s.link_transmissions;
    total.deliveries += s.deliveries;
    total.drops += s.drops;
    total.ttl_prunes += s.ttl_prunes;
    total.in_flight_invalidated += s.in_flight_invalidated;
  }
  return total;
}

std::size_t SimSession::run() {
  if (!kernel_) return queue_.run();
  const sim::ParallelKernel::RunStats stats =
      kernel_->run(options_.kernel_threads);
  merge_lane_traces();
  return static_cast<std::size_t>(stats.region_events + stats.global_events);
}

std::size_t SimSession::run_until(double t_end) {
  if (!kernel_) return queue_.run_until(t_end);
  const sim::ParallelKernel::RunStats stats =
      kernel_->run(options_.kernel_threads, t_end);
  merge_lane_traces();
  return static_cast<std::size_t>(stats.region_events + stats.global_events);
}

trace::Tracer* SimSession::lane_tracer(net::NodeId node) {
  return &lanes_[1 + region_map_.of[node]]->tracer;
}

trace::Tracer* SimSession::control_tracer() {
  if (!kernel_) return tracer_;
  return &lanes_[0]->tracer;
}

void SimSession::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (!kernel_) {
    queue_.set_tracer(tracer);
    network().set_tracer(tracer);
    for (auto& a : agents_) a->set_tracer(tracer);
    return;
  }
  // Components stay wired to their lanes; only the lanes' masks follow the
  // user's tracer.  The merge in run() forwards into the user's sink.
  for (auto& lane : lanes_) lane->tracer.set_mask(tracer->mask());
}

void SimSession::merge_lane_traces() {
  if (lanes_.empty()) return;
  if (tracer_ == &trace::Tracer::null()) {
    // No consumer: drop whatever the lanes captured so they cannot grow
    // across runs.
    for (auto& lane : lanes_) lane->sink.clear();
    return;
  }
  bool any = false;
  for (const auto& lane : lanes_) {
    if (!lane->sink.events().empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;
  // Each lane is already time-ordered (a queue's clock never goes
  // backwards), so a k-way merge by (t, lane) — global lane 0 winning ties,
  // then regions in index order — yields one deterministic stream.  This is
  // the "deterministic merge" half of the bit-identical-traces guarantee;
  // the other half is that each lane's content is worker-independent.
  std::vector<std::size_t> pos(lanes_.size(), 0);
  for (;;) {
    std::size_t best = lanes_.size();
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const auto& events = lanes_[l]->sink.events();
      if (pos[l] >= events.size()) continue;
      if (best == lanes_.size() ||
          events[pos[l]].t < lanes_[best]->sink.events()[pos[best]].t) {
        best = l;
      }
    }
    if (best == lanes_.size()) break;
    tracer_->emit(lanes_[best]->sink.events()[pos[best]]);
    ++pos[best];
  }
  for (auto& lane : lanes_) lane->sink.clear();
}

SrmAgent& SimSession::agent_at(net::NodeId node) {
  const auto it = index_of_.find(node);
  if (it == index_of_.end()) {
    throw std::out_of_range("SimSession::agent_at: node has no member");
  }
  return *agents_[it->second];
}

SrmAgent& SimSession::add_member(net::NodeId node) {
  if (index_of_.count(node) != 0) {
    throw std::logic_error("SimSession::add_member: node already a member");
  }
  auto agent = std::make_unique<SrmAgent>(
      net_of(node), directory_, node, /*id=*/static_cast<SourceId>(node),
      options_.group, options_.srm, rng_.fork());
  agent->set_tracer(kernel_ ? lane_tracer(node) : tracer_);
  agent->start();
  if (hierarchy_) hierarchy_->attach(*agent, area_map_.of[node]);
  index_of_[node] = agents_.size();
  member_nodes_.push_back(node);
  agents_.push_back(std::move(agent));
  return *agents_.back();
}

void SimSession::remove_member(net::NodeId node, bool graceful) {
  const auto it = index_of_.find(node);
  if (it == index_of_.end()) {
    throw std::out_of_range("SimSession::remove_member: node has no member");
  }
  const std::size_t i = it->second;
  SrmAgent& agent = *agents_[i];
  if (graceful) agent.send_session_message();
  if (hierarchy_) hierarchy_->detach(agent);
  agent.stop();  // leaves the group, cancels timers, detaches, unbinds
  agents_.erase(agents_.begin() + static_cast<std::ptrdiff_t>(i));
  member_nodes_.erase(member_nodes_.begin() +
                      static_cast<std::ptrdiff_t>(i));
  index_of_.erase(it);
  for (auto& [n, idx] : index_of_) {
    if (idx > i) --idx;
  }
}

}  // namespace srm::harness
