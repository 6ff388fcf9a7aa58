#include "harness/scenario.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

#include "topo/builders.h"

namespace srm::harness {

std::vector<DirectedLink> multicast_tree_links(
    net::Routing& routing, net::NodeId source,
    const std::vector<net::NodeId>& members) {
  const net::Spt& t = routing.spt(source);
  std::set<std::pair<net::NodeId, net::NodeId>> edges;
  for (net::NodeId m : members) {
    if (m == source) continue;
    net::NodeId v = m;
    while (v != source) {
      const net::NodeId p = t.parent[v];
      if (p == net::kInvalidNode) break;
      if (!edges.emplace(p, v).second) break;  // shared prefix already added
      v = p;
    }
  }
  std::vector<DirectedLink> out;
  out.reserve(edges.size());
  for (const auto& [from, to] : edges) out.push_back(DirectedLink{from, to});
  return out;
}

DirectedLink choose_congested_link(net::Routing& routing, net::NodeId source,
                                   const std::vector<net::NodeId>& members,
                                   util::Rng& rng) {
  const auto links = multicast_tree_links(routing, source, members);
  if (links.empty()) {
    throw std::logic_error("choose_congested_link: empty multicast tree");
  }
  return links[rng.index(links.size())];
}

DirectedLink link_adjacent_to_source(net::Routing& routing,
                                     net::NodeId source,
                                     const std::vector<net::NodeId>& members) {
  for (const DirectedLink& l :
       multicast_tree_links(routing, source, members)) {
    if (l.from == source) return l;
  }
  throw std::logic_error("link_adjacent_to_source: none found");
}

std::vector<net::NodeId> affected_members(
    net::Routing& routing, net::NodeId source, DirectedLink congested,
    const std::vector<net::NodeId>& members) {
  const net::Spt& t = routing.spt(source);
  std::vector<net::NodeId> out;
  for (net::NodeId m : members) {
    if (m == source) continue;
    for (net::NodeId v = m; v != source; v = t.parent[v]) {
      if (t.parent[v] == net::kInvalidNode) break;
      if (t.parent[v] == congested.from && v == congested.to) {
        out.push_back(m);
        break;
      }
    }
  }
  return out;
}

std::vector<net::NodeId> choose_members(std::size_t node_count, std::size_t k,
                                        util::Rng& rng) {
  const auto idx = rng.sample_without_replacement(node_count, k);
  std::vector<net::NodeId> out;
  out.reserve(k);
  for (std::size_t i : idx) out.push_back(static_cast<net::NodeId>(i));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<net::NodeId> ttl_reach(const net::Topology& topo,
                                   net::NodeId origin, int ttl) {
  // BFS carrying the remaining TTL; a hop is allowed when the packet's TTL
  // at the upstream node is >= the link threshold (and >= 1), after which
  // the TTL decrements.  Hop-count BFS is correct because all thresholds
  // constrain hops, not delay.
  std::vector<int> best(topo.node_count(), -1);
  std::deque<std::pair<net::NodeId, int>> q;
  best[origin] = ttl;
  q.emplace_back(origin, ttl);
  while (!q.empty()) {
    const auto [u, t] = q.front();
    q.pop_front();
    for (const net::LinkEnd& e : topo.neighbors(u)) {
      if (t < 1 || t < e.threshold) continue;
      const int nt = t - 1;
      if (nt > best[e.peer]) {
        best[e.peer] = nt;
        q.emplace_back(e.peer, nt);
      }
    }
  }
  std::vector<net::NodeId> out;
  for (net::NodeId v = 0; v < topo.node_count(); ++v) {
    if (v != origin && best[v] >= 0) out.push_back(v);
  }
  return out;
}

namespace {

// Minimum initial TTL needed for a packet from origin to reach `target`.
// With all thresholds 1 this is the hop count; larger thresholds raise it.
std::vector<int> min_ttl_to_each(const net::Topology& topo,
                                 net::NodeId origin) {
  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> need(topo.node_count(), kUnreached);
  need[origin] = 0;
  // Dijkstra-like relaxation on "required initial TTL": traversing a link
  // with threshold th from a node requiring t means the packet must still
  // have max(th, remaining) TTL there; required initial TTL at the peer is
  // max(need[u] + 1, threshold + depth(u))... computed incrementally:
  // carry (required_initial, hops) and relax.
  struct State {
    int required;
    int hops;
    net::NodeId node;
    bool operator>(const State& o) const {
      return required > o.required ||
             (required == o.required && hops > o.hops);
    }
  };
  std::priority_queue<State, std::vector<State>, std::greater<>> pq;
  std::vector<int> hops_at(topo.node_count(), kUnreached);
  hops_at[origin] = 0;
  pq.push(State{0, 0, origin});
  while (!pq.empty()) {
    const State s = pq.top();
    pq.pop();
    if (s.required > need[s.node]) continue;
    for (const net::LinkEnd& e : topo.neighbors(s.node)) {
      // TTL at this node must be >= threshold, i.e. initial >= hops + th
      // (and initial >= hops+1 to have TTL left to spend).
      const int required = std::max(
          s.required, s.hops + std::max(e.threshold, 1));
      const int nh = s.hops + 1;
      if (required < need[e.peer] ||
          (required == need[e.peer] && nh < hops_at[e.peer])) {
        need[e.peer] = required;
        hops_at[e.peer] = nh;
        pq.push(State{required, nh, e.peer});
      }
    }
  }
  return need;
}

}  // namespace

int min_ttl_to_reach_all(const net::Topology& topo, net::NodeId origin,
                         const std::vector<net::NodeId>& targets) {
  const auto need = min_ttl_to_each(topo, origin);
  int out = 0;
  for (net::NodeId t : targets) {
    if (t == origin) continue;
    if (need[t] == std::numeric_limits<int>::max()) return -1;
    out = std::max(out, need[t]);
  }
  return out;
}

int min_ttl_to_reach_any(const net::Topology& topo, net::NodeId origin,
                         const std::vector<net::NodeId>& targets) {
  const auto need = min_ttl_to_each(topo, origin);
  int out = std::numeric_limits<int>::max();
  for (net::NodeId t : targets) {
    if (t == origin) return 0;
    out = std::min(out, need[t]);
  }
  return out == std::numeric_limits<int>::max() ? -1 : out;
}

LanWorld tree_of_lans_world(std::size_t members) {
  const auto lans = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(members))));
  topo::TreeOfLans tl =
      topo::make_tree_of_lans(lans, 4, (members + lans - 1) / lans);
  LanWorld world;
  world.topo = std::move(tl.topo);
  world.members.assign(tl.workstations.begin(),
                       tl.workstations.begin() +
                           static_cast<std::ptrdiff_t>(members));
  world.srm.distance_mode = DistanceMode::kEstimated;
  world.srm.hierarchy.enabled = true;
  world.srm.hierarchy.local_ttl = 2;
  world.srm.hierarchy.areas = static_cast<std::uint32_t>(lans);
  return world;
}

}  // namespace srm::harness
