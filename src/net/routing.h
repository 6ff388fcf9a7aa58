// Shortest-path routing.
//
// The paper assumes "messages are multicast to members of the multicast
// group along a shortest-path tree from the source of the message"
// (Sec. V).  Routing computes, per source, a Dijkstra shortest-path tree
// over the full topology; trees are cached because loss-recovery rounds
// repeatedly multicast from the same handful of sources.
//
// Each cached tree carries the Topology::version() it was built against.
// Under network dynamics (src/fault) the topology mutates, and a tree whose
// stamp is stale is simply recomputed on its next query, one source at a
// time.  The tree is canonical — a pure function of the graph: dist is the
// shortest delay, hops the fewest hops among shortest-delay paths, parent
// the lowest-id neighbor achieving both — so when and how often a tree is
// rebuilt never shows in what it contains (tests/net/spt_reference_test.cpp
// pins every field against the original builder, also under churn).
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"

namespace srm::net {

// A shortest-path tree rooted at `root`: six flat per-node arrays, no
// per-node allocation.  Children are kept as ascending-id sibling lists —
// first_child[n] is n's lowest-id child and next_sibling[c] the next-higher
// id child of c's parent, kInvalidNode ending either list — so walking a
// node's children visits them in exactly the ascending order the member-
// pruned delivery walk consults them in.
struct Spt {
  NodeId root = kInvalidNode;
  std::vector<double> dist;     // dist[n]: path delay root -> n (seconds)
  std::vector<int> hops;        // hops[n]: hop count root -> n
  std::vector<NodeId> parent;   // parent[n] on path to root; root's is self
  std::vector<LinkId> parent_link;   // link to parent
  std::vector<NodeId> first_child;   // lowest-id child, or kInvalidNode
  std::vector<NodeId> next_sibling;  // next-higher-id sibling, or kInvalidNode
};

class Routing {
 public:
  explicit Routing(const Topology& topo) : topo_(&topo) {}

  // Shortest-path tree rooted at src (computed on first use, then cached
  // until the topology's version changes).  Ties are broken deterministically
  // toward fewer hops then the lower node id, so repeated runs are
  // reproducible.
  const Spt& spt(NodeId src);

  // Path delay / hop count between two nodes (via the SPT of `from`).
  // Throws std::runtime_error when `to` is unreachable.
  double distance(NodeId from, NodeId to);
  int hop_count(NodeId from, NodeId to);

  // Non-throwing variants for callers that legitimately race with link
  // dynamics (SRM agents mid-partition): unreachable nodes yield infinity /
  // -1 instead of an exception.
  double try_distance(NodeId from, NodeId to);
  int try_hop_count(NodeId from, NodeId to);

  // Ordered node path from `from` to `to` (inclusive of both endpoints).
  std::vector<NodeId> path(NodeId from, NodeId to);

  const Topology& topology() const { return *topo_; }

 private:
  struct Entry {
    Spt tree;                    // valid iff tree.root matches the slot
    std::uint64_t version = 0;   // Topology::version() the tree reflects
  };

  // Dijkstra's (dist, hops, node) frontier key.  The heap below orders
  // these exactly as std::greater<std::tuple<double, int, NodeId>> would,
  // so every pop, label and tie-break matches a tuple priority queue.
  struct HeapKey {
    double dist;
    int hops;
    NodeId node;
  };

  // Full Dijkstra from src, written into t's existing vectors.
  void compute(Spt& t, NodeId src);
  void heap_push(double dist, int hops, NodeId node);
  HeapKey heap_pop();

  const Topology* topo_;
  // Indexed by source node; an entry whose tree root differs from its slot
  // is a hole (not yet computed).  Node ids are dense [0, node_count), so a
  // flat vector beats hashing on the per-delivery distance lookups.  Each
  // entry carries its own version stamp because trees are rebuilt lazily,
  // one source at a time, as they are queried.
  std::vector<Entry> cache_;

  // Dijkstra scratch, reused across calls so steady-state rebuilds are
  // allocation-free.
  std::vector<HeapKey> heap_;
  std::vector<char> done_;  // node settled
};

}  // namespace srm::net
