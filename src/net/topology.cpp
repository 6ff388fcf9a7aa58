#include "net/topology.h"

#include <stdexcept>
#include <vector>

namespace srm::net {

Topology::Topology(std::size_t n) : adjacency_(n), regions_(n, 0) {}

NodeId Topology::add_node() {
  adjacency_.emplace_back();
  regions_.push_back(0);
  ++version_;
  return static_cast<NodeId>(adjacency_.size() - 1);
}

LinkId Topology::add_link(NodeId a, NodeId b, double delay, int threshold) {
  if (a >= node_count() || b >= node_count()) {
    throw std::out_of_range("Topology::add_link: node out of range");
  }
  if (a == b) throw std::invalid_argument("Topology::add_link: self-loop");
  if (delay <= 0.0) {
    throw std::invalid_argument("Topology::add_link: non-positive delay");
  }
  if (threshold < 1) {
    throw std::invalid_argument("Topology::add_link: threshold < 1");
  }
  for (const LinkEnd& e : adjacency_[a]) {
    if (e.peer == b) {
      throw std::invalid_argument("Topology::add_link: duplicate link");
    }
  }
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, delay, threshold, /*up=*/true});
  adjacency_[a].push_back(LinkEnd{b, id, delay, threshold});
  adjacency_[b].push_back(LinkEnd{a, id, delay, threshold});
  ++version_;
  return id;
}

void Topology::rebuild_adjacency(NodeId n) {
  adjacency_[n].clear();
  for (LinkId id = 0; id < links_.size(); ++id) {
    const Link& l = links_[id];
    if (!l.up) continue;
    if (l.a == n) {
      adjacency_[n].push_back(LinkEnd{l.b, id, l.delay, l.threshold});
    } else if (l.b == n) {
      adjacency_[n].push_back(LinkEnd{l.a, id, l.delay, l.threshold});
    }
  }
}

void Topology::set_link_up(LinkId id, bool up) {
  Link& l = links_.at(id);
  if (l.up == up) return;
  l.up = up;
  rebuild_adjacency(l.a);
  rebuild_adjacency(l.b);
  ++version_;
}

LinkId Topology::link_between(NodeId a, NodeId b) const {
  for (const LinkEnd& e : adjacency_.at(a)) {
    if (e.peer == b) return e.link;
  }
  throw std::invalid_argument("Topology::link_between: no such link");
}

void Topology::set_admin_region(NodeId n, std::uint32_t region) {
  regions_.at(n) = region;
}

bool Topology::connected() const {
  if (node_count() == 0) return true;
  std::vector<bool> seen(node_count(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    ++visited;
    for (const LinkEnd& e : adjacency_[n]) {
      if (!seen[e.peer]) {
        seen[e.peer] = true;
        stack.push_back(e.peer);
      }
    }
  }
  return visited == node_count();
}

}  // namespace srm::net
