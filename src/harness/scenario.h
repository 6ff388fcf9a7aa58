// Scenario construction helpers shared by the figure benches: picking
// session members, sources, and the "congested link" on the source-rooted
// multicast tree, and computing which members a given drop affects.
#pragma once

#include <utility>
#include <vector>

#include "net/routing.h"
#include "net/topology.h"
#include "srm/config.h"
#include "util/rng.h"

namespace srm::harness {

// A directed edge of the multicast distribution tree, oriented downstream
// (from the source side toward the receivers).
struct DirectedLink {
  net::NodeId from;
  net::NodeId to;
};

// All directed links of the shortest-path tree from `source` that carry
// traffic to at least one of `members` (the member-pruned multicast tree).
std::vector<DirectedLink> multicast_tree_links(
    net::Routing& routing, net::NodeId source,
    const std::vector<net::NodeId>& members);

// Uniformly random congested link among the tree links (Sec. V: "we
// randomly choose a link on the shortest-path tree from source to the
// members").
DirectedLink choose_congested_link(net::Routing& routing, net::NodeId source,
                                   const std::vector<net::NodeId>& members,
                                   util::Rng& rng);

// The congested link adjacent to the source (used by several figures).
DirectedLink link_adjacent_to_source(net::Routing& routing,
                                     net::NodeId source,
                                     const std::vector<net::NodeId>& members);

// Members whose path from `source` traverses the directed link (i.e. the
// members that lose a packet dropped there).
std::vector<net::NodeId> affected_members(
    net::Routing& routing, net::NodeId source, DirectedLink congested,
    const std::vector<net::NodeId>& members);

// Chooses k member nodes uniformly from the n topology nodes.
std::vector<net::NodeId> choose_members(std::size_t node_count,
                                        std::size_t k, util::Rng& rng);

// The set of nodes a multicast with the given TTL from `origin` reaches,
// honoring per-link TTL thresholds (used by the local-recovery analysis).
std::vector<net::NodeId> ttl_reach(const net::Topology& topo,
                                   net::NodeId origin, int ttl);

// Smallest TTL from `origin` that reaches every node in `targets`;
// returns -1 if some target is unreachable at any TTL.
int min_ttl_to_reach_all(const net::Topology& topo, net::NodeId origin,
                         const std::vector<net::NodeId>& targets);

// Smallest TTL from `origin` that reaches at least one node in `targets`.
int min_ttl_to_reach_any(const net::Topology& topo, net::NodeId origin,
                         const std::vector<net::NodeId>& targets);

// The world of hierarchical sessions at G members: round(sqrt(G)) LANs of
// degree 4 holding the first G workstations, one area per LAN, TTL-2 local
// reports and estimated distances.
struct LanWorld {
  net::Topology topo;
  std::vector<net::NodeId> members;
  SrmConfig srm;  // hierarchy on
};
LanWorld tree_of_lans_world(std::size_t members);

}  // namespace srm::harness
