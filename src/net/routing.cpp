#include "net/routing.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace srm::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// std::greater over (dist, hops, node) keys, spelled with std::tie so the
// heap orders them exactly as a priority queue of std::tuple keys would.
constexpr auto kKeyGreater = [](const auto& a, const auto& b) {
  return std::tie(b.dist, b.hops, b.node) < std::tie(a.dist, a.hops, a.node);
};

}  // namespace

const Spt& Routing::spt(NodeId src) {
  if (src >= topo_->node_count()) {
    throw std::out_of_range("Routing::spt: bad source");
  }
  if (cache_.size() < topo_->node_count()) {
    cache_.resize(topo_->node_count());
  }
  Entry& entry = cache_[src];
  if (entry.tree.root != src || entry.version != topo_->version()) {
    compute(entry.tree, src);
    entry.version = topo_->version();
  }
  return entry.tree;
}

// std::priority_queue::push and top-then-pop, step for step.
void Routing::heap_push(double dist, int hops, NodeId node) {
  heap_.push_back(HeapKey{dist, hops, node});
  std::push_heap(heap_.begin(), heap_.end(), kKeyGreater);
}

Routing::HeapKey Routing::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), kKeyGreater);
  const HeapKey top = heap_.back();
  heap_.pop_back();
  return top;
}

void Routing::compute(Spt& t, NodeId src) {
  const std::size_t n = topo_->node_count();
  t.root = src;
  t.dist.assign(n, kInf);
  t.hops.assign(n, -1);
  t.parent.assign(n, kInvalidNode);
  t.parent_link.assign(n, 0);
  t.first_child.assign(n, kInvalidNode);
  t.next_sibling.assign(n, kInvalidNode);

  // Dijkstra with (dist, hops, node) keys: ties on distance are broken by
  // fewer hops then lower node id, giving a deterministic tree.
  heap_.clear();
  t.dist[src] = 0.0;
  t.hops[src] = 0;
  t.parent[src] = src;
  heap_push(0.0, 0, src);

  done_.assign(n, 0);
  while (!heap_.empty()) {
    const auto [d, h, u] = heap_pop();
    if (done_[u]) continue;
    done_[u] = 1;
    for (const LinkEnd& e : topo_->neighbors(u)) {
      const double nd = d + e.delay;
      const int nh = h + 1;
      const bool better =
          nd < t.dist[e.peer] ||
          (nd == t.dist[e.peer] &&
           (nh < t.hops[e.peer] ||
            (nh == t.hops[e.peer] && u < t.parent[e.peer])));
      if (!done_[e.peer] && better) {
        t.dist[e.peer] = nd;
        t.hops[e.peer] = nh;
        t.parent[e.peer] = u;
        t.parent_link[e.peer] = e.link;
        heap_push(nd, nh, e.peer);
      }
    }
  }

  // Prepending in descending id order leaves every sibling list ascending.
  for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
    if (v != src && t.parent[v] != kInvalidNode) {
      t.next_sibling[v] = t.first_child[t.parent[v]];
      t.first_child[t.parent[v]] = v;
    }
  }
}

double Routing::distance(NodeId from, NodeId to) {
  const Spt& t = spt(from);
  if (to >= t.dist.size() || t.dist[to] == kInf) {
    throw std::runtime_error("Routing::distance: unreachable");
  }
  return t.dist[to];
}

int Routing::hop_count(NodeId from, NodeId to) {
  const Spt& t = spt(from);
  if (to >= t.hops.size() || t.hops[to] < 0) {
    throw std::runtime_error("Routing::hop_count: unreachable");
  }
  return t.hops[to];
}

double Routing::try_distance(NodeId from, NodeId to) {
  const Spt& t = spt(from);
  return to < t.dist.size() ? t.dist[to] : kInf;
}

int Routing::try_hop_count(NodeId from, NodeId to) {
  const Spt& t = spt(from);
  return to < t.hops.size() ? t.hops[to] : -1;
}

std::vector<NodeId> Routing::path(NodeId from, NodeId to) {
  const Spt& t = spt(from);
  if (t.parent.at(to) == kInvalidNode) {
    throw std::runtime_error("Routing::path: unreachable");
  }
  std::vector<NodeId> rev;
  for (NodeId v = to; v != from; v = t.parent[v]) rev.push_back(v);
  rev.push_back(from);
  std::reverse(rev.begin(), rev.end());
  return rev;
}

}  // namespace srm::net
