// Shortest-path routing.
//
// The paper assumes "messages are multicast to members of the multicast
// group along a shortest-path tree from the source of the message"
// (Sec. V).  Routing computes, per source, a Dijkstra shortest-path tree
// over the full topology; trees are cached because loss-recovery rounds
// repeatedly multicast from the same handful of sources.
//
// Under network dynamics (src/fault) the topology mutates constantly, so a
// stale tree is *repaired* from the topology's edit journal instead of
// being recomputed: the subtrees hanging off a downed parent link are
// detached and only their frontier is re-relaxed (a Ramalingam–Reps-style
// dynamic Dijkstra).  The canonical tree is a pure function of the graph —
// dist is the shortest delay, hops the fewest hops among shortest-delay
// paths, parent the lowest-id neighbor achieving both — so a repaired tree
// is bit-identical to a fresh compute(); SRM_ROUTING_VERIFY=1 (or
// set_verify(true)) cross-checks that on every repair.  When the journal
// has been truncated or a delta batch is larger than the repair threshold,
// the tree falls back to a full recompute.
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

// How cached trees were brought up to date; bench/routing_dynamics and the
// repair tests read these.
struct RoutingStats {
  std::uint64_t full_builds = 0;        // fresh Dijkstra runs (any reason)
  std::uint64_t repairs = 0;            // incremental journal repairs
  std::uint64_t fallback_truncated = 0;  // journal didn't reach back far enough
  std::uint64_t fallback_threshold = 0;  // delta batch larger than threshold
  std::uint64_t repaired_nodes = 0;     // nodes relabeled across all repairs
  std::uint64_t verified = 0;           // verify-mode cross-checks performed
};

class Routing {
 public:
  explicit Routing(const Topology& topo);

  // Shortest-path tree rooted at src (computed on first use, then cached).
  // Ties are broken deterministically toward fewer hops then the lower node
  // id, so repeated runs are reproducible.  A stale cached tree is repaired
  // in place from the topology's edit journal when possible (see the header
  // comment) and recomputed otherwise; either way the result is identical.
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

  // Repair controls.  Disabling repair (or a threshold of 0) forces every
  // stale tree through a full recompute — the pre-journal behavior, kept for
  // baseline comparison in bench/routing_dynamics.
  void set_repair_enabled(bool enabled) { repair_enabled_ = enabled; }
  bool repair_enabled() const { return repair_enabled_; }
  // Maximum journal-delta batch a repair will absorb; larger batches (e.g. a
  // whole topology rebuilt under one cached tree) recompute instead, since
  // the affected region would approach the full graph anyway.
  void set_repair_threshold(std::size_t max_deltas) {
    repair_threshold_ = max_deltas;
  }
  std::size_t repair_threshold() const { return repair_threshold_; }

  // Cross-check every repaired tree against a fresh compute() and throw
  // std::logic_error on any field mismatch.  Defaults to the value of the
  // SRM_ROUTING_VERIFY environment variable (unset/"0" = off); sanitizer CI
  // and `srmsim --routing-verify` turn it on.
  void set_verify(bool verify) { verify_ = verify; }
  bool verify() const { return verify_; }

  const RoutingStats& stats() const { return stats_; }

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
  // Brings `entry` up to date via the edit journal; false when the journal
  // is truncated, the batch exceeds the threshold, or repair is disabled.
  bool try_repair(Entry& entry);
  void repair(Spt& t, const std::vector<TopoEdit>& edits);
  void verify_repair(const Spt& repaired);
  void heap_push(double dist, int hops, NodeId node);
  HeapKey heap_pop();

  const Topology* topo_;
  // Indexed by source node; an entry whose tree root differs from its slot
  // is a hole (not yet computed).  Node ids are dense [0, node_count), so a
  // flat vector beats hashing on the per-delivery distance lookups.  Each
  // entry carries its own version stamp because trees are repaired lazily,
  // one source at a time, as they are queried.
  std::vector<Entry> cache_;

  bool repair_enabled_ = true;
  std::size_t repair_threshold_ = 64;
  bool verify_ = false;
  RoutingStats stats_;

  // Dijkstra scratch shared by compute() and repair(), reused across calls
  // so steady-state builds and repairs are allocation-free.
  std::vector<HeapKey> heap_;
  std::vector<char> done_;  // compute(): node settled
  // Repair scratch.  Flag vectors are sized to the node count and reset
  // sparsely (only touched slots are cleared).
  std::vector<TopoEdit> edit_scratch_;
  std::vector<char> orphan_flag_;
  std::vector<char> touched_flag_;
  std::vector<NodeId> orphans_;
  std::vector<std::pair<NodeId, NodeId>> touched_;  // (node, pre-repair parent)
  std::vector<NodeId> stack_scratch_;
};

}  // namespace srm::net
