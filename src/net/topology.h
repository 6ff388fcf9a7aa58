// Network topology: an undirected weighted graph of routers/hosts.
//
// Links have a propagation delay (the paper normalizes this to one "unit"
// per link in most scenarios) and an Mbone-style TTL threshold (default 1).
// Nodes may be assigned an administrative region for admin-scoped multicast.
//
// Topologies are mutable at runtime: links can be taken down and brought
// back up (fault injection; see src/fault).  Every structural mutation bumps
// version(), the stamp consumers caching derived structures (shortest-path
// trees, the network's forest) compare against to know they must rebuild.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"

namespace srm::net {

using LinkId = std::uint32_t;

struct LinkEnd {
  NodeId peer;       // node on the other side
  LinkId link;       // id of the connecting link
  double delay;      // propagation delay in seconds
  int threshold;     // minimum TTL to be forwarded on this link
};

struct Link {
  NodeId a;
  NodeId b;
  double delay;
  int threshold;
  bool up = true;  // down links carry no traffic and leave adjacency
};

class Topology {
 public:
  // Creates a topology with n isolated nodes.
  explicit Topology(std::size_t n = 0);

  NodeId add_node();
  // Adds an undirected link; returns its id.  Self-loops and duplicate
  // endpoints are rejected.
  LinkId add_link(NodeId a, NodeId b, double delay = 1.0, int threshold = 1);

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Link& link(LinkId id) const { return links_.at(id); }
  const std::vector<Link>& links() const { return links_; }
  const std::vector<LinkEnd>& neighbors(NodeId n) const {
    return adjacency_.at(n);
  }

  // Finds the link connecting a and b; throws if absent.  Only up links are
  // visible (a downed link "does not exist" for forwarding purposes).
  LinkId link_between(NodeId a, NodeId b) const;

  // Link dynamics (fault injection).  Taking a link down removes it from
  // both endpoints' adjacency (and thus from routing and delivery); bringing
  // it back up restores it in link-id order, so a down/up cycle reproduces
  // the original adjacency exactly.  No-op if already in that state.
  void set_link_up(LinkId id, bool up);
  bool link_up(LinkId id) const { return links_.at(id).up; }

  // Bumped on every structural mutation (add_node, add_link, set_link_up).
  // Consumers caching anything derived from the graph (shortest-path trees,
  // the network's forest, oracle distances) revalidate against this.
  std::uint64_t version() const { return version_; }

  // Administrative scoping: nodes default to region 0.
  void set_admin_region(NodeId n, std::uint32_t region);
  std::uint32_t admin_region(NodeId n) const { return regions_.at(n); }

  // True if every node is reachable from node 0 (or the graph is empty).
  bool connected() const;

  // Degree of a node (number of incident links).
  std::size_t degree(NodeId n) const { return adjacency_.at(n).size(); }

 private:
  void rebuild_adjacency(NodeId n);

  std::vector<std::vector<LinkEnd>> adjacency_;
  std::vector<Link> links_;
  std::vector<std::uint32_t> regions_;
  std::uint64_t version_ = 0;
};

}  // namespace srm::net
