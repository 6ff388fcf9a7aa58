#include "net/routing.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>

namespace srm::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sibling-list maintenance.  compute() links every list in ascending
// node-id order, so repairs keep every list sorted and the two construction
// paths agree byte for byte.  Both walks are O(degree), as the sorted-vector
// erase/insert they replace were.
void erase_child(Spt& t, NodeId parent, NodeId child) {
  NodeId* link = &t.first_child[parent];
  while (*link != kInvalidNode && *link < child) link = &t.next_sibling[*link];
  if (*link != child) return;
  *link = t.next_sibling[child];
  t.next_sibling[child] = kInvalidNode;
}

void insert_child(Spt& t, NodeId parent, NodeId child) {
  NodeId* link = &t.first_child[parent];
  while (*link != kInvalidNode && *link < child) link = &t.next_sibling[*link];
  t.next_sibling[child] = *link;
  *link = child;
}

// std::greater over (dist, hops, node) keys, spelled with std::tie so the
// heap orders them exactly as a priority queue of std::tuple keys would.
constexpr auto kKeyGreater = [](const auto& a, const auto& b) {
  return std::tie(b.dist, b.hops, b.node) < std::tie(a.dist, a.hops, a.node);
};

}  // namespace

Routing::Routing(const Topology& topo) : topo_(&topo) {
  const char* env = std::getenv("SRM_ROUTING_VERIFY");
  verify_ = env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

const Spt& Routing::spt(NodeId src) {
  if (src >= topo_->node_count()) {
    throw std::out_of_range("Routing::spt: bad source");
  }
  if (cache_.size() < topo_->node_count()) {
    cache_.resize(topo_->node_count());
  }
  Entry& entry = cache_[src];
  if (entry.tree.root == src) {
    if (entry.version == topo_->version()) return entry.tree;
    if (try_repair(entry)) return entry.tree;
  }
  compute(entry.tree, src);
  entry.version = topo_->version();
  ++stats_.full_builds;
  return entry.tree;
}

bool Routing::try_repair(Entry& entry) {
  if (!repair_enabled_) return false;
  if (!topo_->journal_since(entry.version, edit_scratch_)) {
    ++stats_.fallback_truncated;
    return false;
  }
  if (edit_scratch_.size() > repair_threshold_) {
    ++stats_.fallback_threshold;
    return false;
  }
  repair(entry.tree, edit_scratch_);
  entry.version = topo_->version();
  ++stats_.repairs;
  if (verify_) {
    verify_repair(entry.tree);
    ++stats_.verified;
  }
  return true;
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
  if (src >= n) throw std::out_of_range("Routing::compute: bad source");

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

// Dynamic SPT repair, Ramalingam–Reps style, specialized to our canonical
// tree.  The canonical labels are a pure function of the current graph:
//
//   dist[v]   = shortest delay root -> v
//   hops[v]   = fewest hops among shortest-delay paths
//   parent[v] = lowest-id neighbor u with dist[u] + w(u,v) == dist[v] and
//               hops[u] + 1 == hops[v]
//
// so it suffices to reach that fixpoint from the stale tree:
//
//   1. Detach the subtrees hanging off every removed tree link (labels reset
//      to unreachable) — labels of the remaining nodes are still canonical,
//      because every path the stale tree recorded for them is intact and
//      edge removal can only shrink the path set.
//   2. Seed a (dist, hops, node)-keyed frontier: each orphan's best label
//      over its surviving non-orphan neighbors, plus both endpoints of every
//      inserted link.
//   3. Run Dijkstra over the frontier with the same improvement predicate
//      as compute().  Labels only ever move toward the canonical fixpoint
//      (every candidate is dist[u] + w for a label dist[u] >= canonical),
//      and every affected node's qualifying predecessors settle strictly
//      before it does, so the minimum-id parent tie-break lands exactly as
//      a full Dijkstra's would.
//
// Distances stay bit-identical to compute() because both paths evaluate the
// same sum dist[parent] + delay along the same (unique) canonical parent
// chain — there is no reassociation to accumulate rounding differences.
void Routing::repair(Spt& t, const std::vector<TopoEdit>& edits) {
  const std::size_t n = topo_->node_count();
  if (t.dist.size() < n) {
    t.dist.resize(n, kInf);
    t.hops.resize(n, -1);
    t.parent.resize(n, kInvalidNode);
    t.parent_link.resize(n, 0);
    t.first_child.resize(n, kInvalidNode);
    t.next_sibling.resize(n, kInvalidNode);
  }
  if (orphan_flag_.size() < n) {
    orphan_flag_.resize(n, 0);
    touched_flag_.resize(n, 0);
  }
  orphans_.clear();
  touched_.clear();

  // Phase 1: detach every subtree whose parent link went down.  The subtree
  // root is unlinked from its (necessarily surviving) parent's list; every
  // orphan's own list is walked before it is cleared, and its sibling link
  // was read when its parent was expanded, so both reset safely.
  for (const TopoEdit& e : edits) {
    if (e.kind != TopoEdit::Kind::kLinkDown) continue;
    const Link& l = topo_->link(e.link);
    NodeId cut_child = kInvalidNode;
    if (t.parent[l.b] == l.a && t.parent_link[l.b] == e.link) {
      cut_child = l.b;
    } else if (t.parent[l.a] == l.b && t.parent_link[l.a] == e.link) {
      cut_child = l.a;
    }
    if (cut_child == kInvalidNode) continue;  // not a tree edge (any more)
    erase_child(t, t.parent[cut_child], cut_child);
    stack_scratch_.assign(1, cut_child);
    while (!stack_scratch_.empty()) {
      const NodeId v = stack_scratch_.back();
      stack_scratch_.pop_back();
      orphan_flag_[v] = 1;
      orphans_.push_back(v);
      for (NodeId c = t.first_child[v]; c != kInvalidNode;
           c = t.next_sibling[c]) {
        stack_scratch_.push_back(c);
      }
      t.first_child[v] = kInvalidNode;
      t.next_sibling[v] = kInvalidNode;
      t.dist[v] = kInf;
      t.hops[v] = -1;
      t.parent[v] = kInvalidNode;
      t.parent_link[v] = 0;
    }
  }

  // compute()'s improvement predicate; returns whether the (dist, hops) key
  // changed (a parent-only improvement needs no propagation: neighbors'
  // labels do not depend on this node's parent).
  const auto improve = [&](NodeId v, double nd, int nh, NodeId p,
                           LinkId link) -> bool {
    const bool better =
        nd < t.dist[v] ||
        (nd == t.dist[v] &&
         (nh < t.hops[v] || (nh == t.hops[v] && p < t.parent[v])));
    if (!better) return false;
    if (!touched_flag_[v] && !orphan_flag_[v]) {
      touched_flag_[v] = 1;
      touched_.emplace_back(v, t.parent[v]);
    }
    const bool key_changed = nd != t.dist[v] || nh != t.hops[v];
    t.dist[v] = nd;
    t.hops[v] = nh;
    t.parent[v] = p;
    t.parent_link[v] = link;
    return key_changed;
  };

  // Phase 2: seed the frontier.  Orphans scan their surviving neighbors
  // outside the detached region, whose labels are still canonical (applying
  // the predicate across all of them lands the lowest-id parent); an orphan
  // with none is left to phase 3 rather than seeded from another orphan's
  // tentative label.  Inserted links seed both endpoints.  A link inserted
  // but re-removed within the same batch is skipped — only the current
  // graph matters.
  heap_.clear();
  for (const NodeId v : orphans_) {
    for (const LinkEnd& e : topo_->neighbors(v)) {
      if (orphan_flag_[e.peer] || t.dist[e.peer] == kInf) continue;
      improve(v, t.dist[e.peer] + e.delay, t.hops[e.peer] + 1, e.peer, e.link);
    }
    if (t.dist[v] != kInf) heap_push(t.dist[v], t.hops[v], v);
  }
  for (const TopoEdit& e : edits) {
    if (e.kind != TopoEdit::Kind::kLinkUp &&
        e.kind != TopoEdit::Kind::kLinkAdded) {
      continue;
    }
    const Link& l = topo_->link(e.link);
    if (!l.up) continue;
    if (t.dist[l.a] != kInf &&
        improve(l.b, t.dist[l.a] + l.delay, t.hops[l.a] + 1, l.a, e.link)) {
      heap_push(t.dist[l.b], t.hops[l.b], l.b);
    }
    if (t.dist[l.b] != kInf &&
        improve(l.a, t.dist[l.b] + l.delay, t.hops[l.b] + 1, l.b, e.link)) {
      heap_push(t.dist[l.a], t.hops[l.a], l.a);
    }
  }

  // Phase 3: Dijkstra over the affected region.  Stale queue entries (label
  // improved after the push) are skipped by key comparison.
  while (!heap_.empty()) {
    const auto [d, h, u] = heap_pop();
    if (d != t.dist[u] || h != t.hops[u]) continue;
    for (const LinkEnd& e : topo_->neighbors(u)) {
      if (improve(e.peer, d + e.delay, h + 1, u, e.link)) {
        heap_push(t.dist[e.peer], t.hops[e.peer], e.peer);
      }
    }
  }

  // Phase 4: patch the sibling lists.  Sorted insertion keeps every list
  // in ascending node-id order, matching compute().
  for (const auto& [v, old_parent] : touched_) {
    touched_flag_[v] = 0;
    if (t.parent[v] == old_parent) continue;
    if (old_parent != kInvalidNode) erase_child(t, old_parent, v);
    insert_child(t, t.parent[v], v);
  }
  for (const NodeId v : orphans_) {
    orphan_flag_[v] = 0;
    if (t.parent[v] != kInvalidNode) insert_child(t, t.parent[v], v);
  }
  stats_.repaired_nodes += orphans_.size() + touched_.size();
}

void Routing::verify_repair(const Spt& repaired) {
  Spt fresh;
  compute(fresh, repaired.root);
  const auto fail = [&](const char* field, NodeId node) {
    std::ostringstream os;
    os << "Routing: repaired SPT diverges from fresh Dijkstra (root "
       << repaired.root << ", field " << field << ", node " << node << ")";
    throw std::logic_error(os.str());
  };
  const std::size_t n = fresh.dist.size();
  if (repaired.dist.size() != n) fail("size", 0);
  for (NodeId v = 0; v < n; ++v) {
    // Exact comparisons on purpose: the guarantee is bit-identical trees,
    // not approximately-equal ones (infinities compare equal under ==).
    if (repaired.dist[v] != fresh.dist[v]) fail("dist", v);
    if (repaired.hops[v] != fresh.hops[v]) fail("hops", v);
    if (repaired.parent[v] != fresh.parent[v]) fail("parent", v);
    if (repaired.parent_link[v] != fresh.parent_link[v]) fail("parent_link", v);
    if (repaired.first_child[v] != fresh.first_child[v]) {
      fail("first_child", v);
    }
    if (repaired.next_sibling[v] != fresh.next_sibling[v]) {
      fail("next_sibling", v);
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
