#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace srm::net {

namespace {
const std::vector<NodeId> kNoMembers;
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint32_t kind_of(const Packet& packet) {
  return packet.payload ? packet.payload->trace_kind() : 0;
}
}  // namespace

MulticastNetwork::MulticastNetwork(sim::EventQueue& queue,
                                   const Topology& topo)
    : queue_(&queue),
      topo_(&topo),
      routing_(topo),
      sinks_(topo.node_count(), nullptr),
      drop_policy_(std::make_shared<NoDrop>()),
      peers_{this},
      attached_(topo.node_count(), 0),
      send_ordinal_(topo.node_count(), 0) {}

void MulticastNetwork::enable_pdes(sim::ParallelKernel* kernel,
                                   const RegionMap* map,
                                   std::uint32_t self_region,
                                   std::vector<MulticastNetwork*> peers) {
  kernel_ = kernel;
  region_map_ = map;
  self_region_ = self_region;
  peers_ = std::move(peers);
  inboxes_.assign(map->count, {});
  remote_buckets_.assign(map->count, {});
  kernel->set_drain_hook(self_region, [this] { return drain_remote(); });
}

void MulticastNetwork::attach(NodeId n, PacketSink* sink) {
  if (sinks_.at(n) != nullptr) {
    throw std::logic_error("MulticastNetwork::attach: node already attached");
  }
  if (sink == nullptr) {
    throw std::invalid_argument("MulticastNetwork::attach: null sink");
  }
  assert(region_map_ == nullptr || region_map_->of[n] == self_region_);
  sinks_[n] = sink;
  for (MulticastNetwork* p : peers_) p->attached_[n] = 1;
}

void MulticastNetwork::detach(NodeId n) {
  sinks_.at(n) = nullptr;
  for (MulticastNetwork* p : peers_) p->attached_[n] = 0;
}

void MulticastNetwork::join(GroupId g, NodeId n) {
  for (MulticastNetwork* p : peers_) p->join_local(g, n);
}

void MulticastNetwork::leave(GroupId g, NodeId n) {
  for (MulticastNetwork* p : peers_) p->leave_local(g, n);
}

void MulticastNetwork::join_local(GroupId g, NodeId n) {
  if (n >= topo_->node_count()) {
    throw std::out_of_range("MulticastNetwork::join: bad node");
  }
  GroupState& group = groups_[g];
  if (group.bits.empty()) {
    group.bits.assign((topo_->node_count() + 63) / 64, 0);
  }
  if (group.test(n)) return;
  group.bits[n >> 6] |= std::uint64_t{1} << (n & 63);
  group.sorted.insert(
      std::lower_bound(group.sorted.begin(), group.sorted.end(), n), n);
  ++membership_version_;
}

void MulticastNetwork::leave_local(GroupId g, NodeId n) {
  const auto it = groups_.find(g);
  if (it == groups_.end() || n >= topo_->node_count() || !it->second.test(n)) {
    return;
  }
  GroupState& group = it->second;
  group.bits[n >> 6] &= ~(std::uint64_t{1} << (n & 63));
  group.sorted.erase(
      std::lower_bound(group.sorted.begin(), group.sorted.end(), n));
  ++membership_version_;
}

bool MulticastNetwork::is_member(GroupId g, NodeId n) const {
  const auto it = groups_.find(g);
  return it != groups_.end() && n < topo_->node_count() && it->second.test(n);
}

const std::vector<NodeId>& MulticastNetwork::members(GroupId g) const {
  const auto it = groups_.find(g);
  return it != groups_.end() ? it->second.sorted : kNoMembers;
}

void MulticastNetwork::set_drop_policy(std::shared_ptr<DropPolicy> policy) {
  // Size any per-link policy state now, while no walk is consulting it
  // (installation is only legal from setup or a serialized phase).
  if (policy) {
    policy->prepare(topo_->link_count(), peers_.size());
  } else {
    policy = std::make_shared<NoDrop>();
  }
  // Every region consults the same policy object: stateful budgets count
  // globally exactly as they do sequentially, and every stochastic policy
  // keys its draws by stable hop coordinates (drop_policy.h), so sharing
  // the object across concurrent walks is race-free.
  for (MulticastNetwork* p : peers_) p->drop_policy_ = policy;
}

void MulticastNetwork::set_fault_drop_policy(
    std::shared_ptr<DropPolicy> policy) {
  if (policy) policy->prepare(topo_->link_count(), peers_.size());
  for (MulticastNetwork* p : peers_) p->fault_drop_policy_ = policy;
}

void MulticastNetwork::set_receive_filter(transport::ReceiveFilter filter) {
  using Filter = const transport::ReceiveFilter;
  std::shared_ptr<Filter> shared;
  if (filter) shared = std::make_shared<Filter>(std::move(filter));
  for (MulticastNetwork* p : peers_) p->receive_filter_ = shared;
}

const MulticastNetwork::Forest* MulticastNetwork::forest() {
  if (forest_.topology_version != topo_->version()) rebuild_forest();
  return forest_.acyclic ? &forest_ : nullptr;
}

void MulticastNetwork::rebuild_forest() {
  const std::size_t n = topo_->node_count();
  Forest& f = forest_;
  f.topology_version = topo_->version();
  f.acyclic = false;
  for (auto& entry : groups_) entry.second.below_version = 0;
  std::size_t up_links = 0;
  for (NodeId v = 0; v < n; ++v) up_links += topo_->degree(v);
  up_links /= 2;
  // A forest has fewer links than nodes; skip the traversal otherwise.
  if (up_links < n) {
    f.first.assign(n + 1, 0);
    f.ends.clear();
    f.ends.reserve(2 * up_links);
    for (NodeId v = 0; v < n; ++v) {
      f.first[v] = static_cast<std::uint32_t>(f.ends.size());
      const std::vector<LinkEnd>& adj = topo_->neighbors(v);
      f.ends.insert(f.ends.end(), adj.begin(), adj.end());
      std::sort(f.ends.begin() + f.first[v], f.ends.end(),
                [](const LinkEnd& a, const LinkEnd& b) {
                  return a.peer < b.peer;
                });
    }
    f.first[n] = static_cast<std::uint32_t>(f.ends.size());
    f.parent.assign(n, kInvalidNode);
    f.parent_link.assign(n, 0);
    f.parent_delay.assign(n, 0.0);
    f.depth.assign(n, 0);
    f.component.assign(n, 0);
    f.order.clear();
    f.order.reserve(n);
    // Breadth-first from each component's lowest id.
    std::size_t components = 0;
    for (NodeId r = 0; r < n; ++r) {
      if (f.parent[r] != kInvalidNode) continue;
      ++components;
      f.parent[r] = r;
      f.component[r] = r;
      std::size_t head = f.order.size();
      f.order.push_back(r);
      while (head < f.order.size()) {
        const NodeId u = f.order[head++];
        for (std::uint32_t e = f.first[u]; e < f.first[u + 1]; ++e) {
          const LinkEnd& end = f.ends[e];
          if (f.parent[end.peer] != kInvalidNode) continue;
          f.parent[end.peer] = u;
          f.parent_link[end.peer] = end.link;
          f.parent_delay[end.peer] = end.delay;
          f.depth[end.peer] = f.depth[u] + 1;
          f.component[end.peer] = r;
          f.order.push_back(end.peer);
        }
      }
    }
    f.acyclic = up_links + components == n;
  }
  if (!f.acyclic) {
    const std::uint64_t version = f.topology_version;
    f = Forest{};  // keeps no O(nodes) arrays for a graph with a cycle
    f.topology_version = version;
  }
}

const std::vector<std::uint32_t>& MulticastNetwork::forest_below(
    const Forest& f, GroupState& gs) {
  if (gs.below_version == membership_version_) return gs.below;
  gs.below_version = membership_version_;
  gs.below.assign(f.order.size(), 0);
  for (auto it = f.order.rbegin(); it != f.order.rend(); ++it) {
    const NodeId v = *it;
    if (gs.test(v)) ++gs.below[v];
    if (f.parent[v] != v) gs.below[f.parent[v]] += gs.below[v];
  }
  return gs.below;
}

std::uint64_t MulticastNetwork::next_mark() {
  const std::size_t n = topo_->node_count();
  if (marked_.size() < n) {
    marked_.resize(n, 0);
    mark_parent_.resize(n, kInvalidNode);
  }
  return ++mark_gen_;
}

template <typename Children>
void MulticastNetwork::mark(NodeId root, const GroupState& gs, int radius,
                            const Children& children) {
  const std::uint64_t gen = next_mark();
  // Depth-first over the radius: a node's way back to the root is recorded
  // before any node below it is popped, so each in-radius member marks its
  // path up to the first node already marked.
  walk_stack_.clear();
  walk_stack_.push_back(WalkFrame{root, kInvalidNode, 0.0, 0, 0});
  while (!walk_stack_.empty()) {
    const WalkFrame fr = walk_stack_.back();
    walk_stack_.pop_back();
    mark_parent_[fr.node] = fr.prev;
    if (gs.test(fr.node)) {
      for (NodeId v = fr.node; marked_[v] != gen; v = mark_parent_[v]) {
        marked_[v] = gen;
        if (v == root) break;
      }
    }
    if (fr.hops >= radius) continue;
    children(fr.node, fr.prev, [&](const LinkEnd& hop) {
      walk_stack_.push_back(WalkFrame{hop.peer, fr.node, 0.0, 0, fr.hops + 1});
    });
  }
}

template <typename Children, typename Needed>
void MulticastNetwork::walk(NodeId root, const Packet& pkt,
                            std::uint64_t packet_ordinal, const GroupState& gs,
                            const Children& children, const Needed& needed) {
  walk_stack_.clear();
  walk_stack_.push_back(WalkFrame{root, kInvalidNode, 0.0, pkt.ttl, 0});
  while (!walk_stack_.empty()) {
    const WalkFrame fr = walk_stack_.back();
    walk_stack_.pop_back();
    if (fr.node != root && gs.test(fr.node)) {
      collect(fr.node, fr.delay, fr.hops);
    }
    children(fr.node, fr.prev, [&](const LinkEnd& hop) {
      if (needed(fr.node, hop.peer) &&
          hop_allowed(pkt, fr.ttl, hop, fr.node, packet_ordinal)) {
        walk_stack_.push_back(WalkFrame{hop.peer, fr.node,
                                        fr.delay + hop.delay, fr.ttl - 1,
                                        fr.hops + 1});
      }
    });
  }
}

void MulticastNetwork::walk_forest(const Forest& f, NodeId root,
                                   const Packet& pkt,
                                   std::uint64_t packet_ordinal, bool scoped,
                                   GroupState& gs) {
  const auto children = [&f](NodeId node, NodeId prev, const auto& visit) {
    for (std::uint32_t e = f.first[node]; e < f.first[node + 1]; ++e) {
      if (f.ends[e].peer != prev) visit(f.ends[e]);
    }
  };
  const std::vector<std::uint32_t>* below = nullptr;
  if (scoped) {
    mark(root, gs, pkt.ttl, children);
  } else {
    below = &forest_below(f, gs);
  }
  // Whether a member lies beyond the hop node -> next.  Unscoped, that is
  // next's subtree when next hangs below node in the fixed rooting, and
  // otherwise the rest of the component outside node's own subtree.
  const auto needed = [&](NodeId node, NodeId next) {
    if (below == nullptr) return marked(next);
    const std::vector<std::uint32_t>& b = *below;
    return f.parent[next] == node ? b[next] > 0
                                  : b[f.component[node]] > b[node];
  };
  walk(root, pkt, packet_ordinal, gs, children, needed);
}

void MulticastNetwork::walk_spt(const Spt& t, const Packet& pkt,
                                std::uint64_t packet_ordinal, bool scoped,
                                const GroupState& gs) {
  const auto children = [&](NodeId node, NodeId, const auto& visit) {
    for (NodeId c = t.first_child[node]; c != kInvalidNode;
         c = t.next_sibling[c]) {
      const Link& l = topo_->link(t.parent_link[c]);
      visit(LinkEnd{c, t.parent_link[c], l.delay, l.threshold});
    }
  };
  if (scoped) {
    mark(t.root, gs, pkt.ttl, children);
  } else {
    // Each member's path back to the root, up to the first node already
    // marked; an unreachable member marks only itself.
    const std::uint64_t gen = next_mark();
    for (NodeId m : gs.sorted) {
      for (NodeId v = m; marked_[v] != gen; v = t.parent[v]) {
        marked_[v] = gen;
        if (v == t.root || t.parent[v] == kInvalidNode) break;
      }
    }
  }
  walk(t.root, pkt, packet_ordinal, gs, children,
       [this](NodeId, NodeId next) { return marked(next); });
}

template <typename Visit>
bool MulticastNetwork::forest_path(const Forest& f, NodeId from, NodeId to,
                                   const Visit& visit) {
  if (f.component[from] != f.component[to]) return false;
  // Climb both ends to their lowest common ancestor: the links above
  // `from` are visited on the way up, those above `to` kept to be visited
  // top-down after.
  path_scratch_.clear();
  NodeId a = from;
  NodeId b = to;
  while (f.depth[a] > f.depth[b]) {
    visit(f.parent_link[a], f.parent_delay[a]);
    a = f.parent[a];
  }
  while (f.depth[b] > f.depth[a]) {
    path_scratch_.emplace_back(f.parent_link[b], f.parent_delay[b]);
    b = f.parent[b];
  }
  while (a != b) {
    visit(f.parent_link[a], f.parent_delay[a]);
    a = f.parent[a];
    path_scratch_.emplace_back(f.parent_link[b], f.parent_delay[b]);
    b = f.parent[b];
  }
  for (auto it = path_scratch_.rbegin(); it != path_scratch_.rend(); ++it) {
    visit(it->first, it->second);
  }
  return true;
}

bool MulticastNetwork::hop_allowed(const Packet& packet, int ttl_at_from,
                                   const LinkEnd& edge, NodeId from,
                                   std::uint64_t packet_ordinal) {
  const auto trace_hop = [&](trace::EventType type, std::uint64_t d) {
    if (!tracer_->wants(trace::Category::kNet)) return;
    trace::Event ev;
    ev.type = type;
    ev.t = queue_->now();
    ev.actor = from;
    ev.a = packet.group;
    ev.b = kind_of(packet);
    ev.c = edge.peer;
    ev.d = d;
    tracer_->emit(ev);
  };
  // Mbone forwarding rule: a packet is forwarded on a link only if its TTL
  // is at least the link's threshold (Sec. VII-B.3).
  if (ttl_at_from < 1 || ttl_at_from < edge.threshold) {
    ++stats_.ttl_prunes;
    trace_hop(trace::EventType::kNetPrune,
              static_cast<std::uint64_t>(ttl_at_from));
    return false;
  }
  // Administrative scoping confines the packet to the sender's region.
  if (packet.scope == Scope::kAdmin &&
      topo_->admin_region(edge.peer) != topo_->admin_region(packet.source)) {
    ++stats_.ttl_prunes;
    trace_hop(trace::EventType::kNetPrune,
              static_cast<std::uint64_t>(ttl_at_from));
    return false;
  }
  // The walk consults at send time, so queue_->now() and the per-source
  // transmission ordinal are stable coordinates for keyed stochastic draws —
  // identical in the sequential and parallel kernels.
  const HopContext hop{edge.link, from, edge.peer, packet_ordinal,
                       queue_->now(), self_region_};
  // Primary policy first; the fault slot is only consulted when the primary
  // passes, so a scripted round drop does not also advance burst-loss state.
  // A policy restricted to another link is skipped without a call.
  if ((drop_policy_->applies(hop) && drop_policy_->should_drop(packet, hop)) ||
      (fault_drop_policy_ && fault_drop_policy_->applies(hop) &&
       fault_drop_policy_->should_drop(packet, hop))) {
    ++stats_.drops;
    trace_hop(trace::EventType::kNetDrop, edge.link);
    return false;
  }
  ++stats_.link_transmissions;
  return true;
}

std::uint64_t MulticastNetwork::begin_send(NodeId from, Packet& packet,
                                           std::uint64_t& sent_counter) {
  if (from >= topo_->node_count()) {
    throw std::out_of_range("MulticastNetwork: bad sender");
  }
  packet.source = from;
  ++sent_counter;
  // Per-source transmission ordinal: a node's sends execute in the same
  // order under every kernel (its events all live in its own region's
  // queue), so this counter is a stable coordinate for keyed drop draws.
  const std::uint64_t packet_ordinal = next_send_ordinal(from);
  if (send_observer_) send_observer_(from, packet);
  if (tracer_->wants(trace::Category::kNet)) {
    trace::Event ev;
    ev.type = trace::EventType::kNetSend;
    ev.t = queue_->now();
    ev.actor = from;
    ev.a = packet.group;
    ev.b = kind_of(packet);
    ev.c = static_cast<std::uint64_t>(packet.ttl);
    ev.d = static_cast<std::uint64_t>(packet.scope);
    tracer_->emit(ev);
  }
  return packet_ordinal;
}

void MulticastNetwork::collect(NodeId node, double delay, int hops) {
  if (!attached_[node]) return;
  const std::uint32_t reg =
      region_map_ != nullptr ? region_map_->of[node] : self_region_;
  if (reg == self_region_) {
    walked_.push_back(ChainItem{delay, 0, node, hops});
    ++stats_.deliveries;
  } else {
    // Receiver lives in another region: bucket for a remote chain.  The
    // owning network counts the delivery when it adopts the chain, so
    // increments and decrements stay on one network's counters.
    if (remote_buckets_[reg].empty()) touched_regions_.push_back(reg);
    remote_buckets_[reg].push_back(ChainItem{delay, 0, node, hops});
  }
}

void MulticastNetwork::multicast(NodeId from, Packet packet) {
  const std::uint64_t packet_ordinal =
      begin_send(from, packet, stats_.multicasts_sent);
  const bool scoped = scoped_walk_ && packet.ttl < kMaxTtl &&
                      packet.scope == Scope::kGlobal;
  const auto shared = std::make_shared<const Packet>(std::move(packet));
  const Packet& pkt = *shared;

  walked_.clear();
  // A group nobody ever joined has nothing to walk.
  if (const auto git = groups_.find(pkt.group); git != groups_.end()) {
    if (const Forest* f = forest()) {
      walk_forest(*f, from, pkt, packet_ordinal, scoped, git->second);
    } else {
      walk_spt(routing_.spt(from), pkt, packet_ordinal, scoped, git->second);
    }
  }
  if (!walked_.empty()) dispatch_chain(shared, queue_->now(), walked_);
  if (!touched_regions_.empty()) {
    // Ship each remote bucket as one chain.  Region index order makes the
    // per-origin chain counter — and thus the destination's drain order —
    // a pure function of the walk, independent of worker scheduling.
    std::sort(touched_regions_.begin(), touched_regions_.end());
    for (std::uint32_t reg : touched_regions_) {
      std::vector<ChainItem>& bucket = remote_buckets_[reg];
      peers_[reg]->accept_remote_chain(
          self_region_, remote_seq_++, shared,
          std::vector<ChainItem>(bucket.begin(), bucket.end()),
          queue_->now());
      bucket.clear();
    }
    touched_regions_.clear();
  }
}

void MulticastNetwork::accept_remote_chain(std::uint32_t origin_region,
                                           std::uint64_t origin_seq,
                                           std::shared_ptr<const Packet> packet,
                                           std::vector<ChainItem> items,
                                           double sent_at) {
  double nearest = items.front().delay;
  for (const ChainItem& item : items) nearest = std::min(nearest, item.delay);
  // Conservative-safety invariant: the path to another region crosses the
  // inter-region cut, so no remote arrival can undercut the kernel's pair
  // bound D(origin, dest).
  assert(kernel_ == nullptr ||
         nearest >= kernel_->min_delay(origin_region, self_region_));
  RemoteChain rc;
  rc.first_arrival = sent_at + nearest;
  rc.packet = std::move(packet);
  rc.items = std::move(items);
  rc.sent_at = sent_at;
  rc.origin_region = origin_region;
  rc.origin_seq = origin_seq;
  inboxes_[origin_region].push_back(std::move(rc));
}

std::uint64_t MulticastNetwork::drain_remote() {
  bool any = false;
  for (const std::vector<RemoteChain>& lane : inboxes_) {
    if (!lane.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return 0;
  remote_merge_scratch_.clear();
  for (std::vector<RemoteChain>& lane : inboxes_) {
    for (RemoteChain& rc : lane) {
      remote_merge_scratch_.push_back(std::move(rc));
    }
    lane.clear();
  }
  // Adoption order is the deterministic merge key; the local seq block each
  // chain draws in dispatch_chain() follows from it, so delivery interleaving
  // at equal timestamps is identical for every worker count.
  std::sort(remote_merge_scratch_.begin(), remote_merge_scratch_.end(),
            [](const RemoteChain& a, const RemoteChain& b) {
              if (a.first_arrival != b.first_arrival) {
                return a.first_arrival < b.first_arrival;
              }
              if (a.origin_region != b.origin_region) {
                return a.origin_region < b.origin_region;
              }
              return a.origin_seq < b.origin_seq;
            });
  for (RemoteChain& rc : remote_merge_scratch_) {
    for (const ChainItem& item : rc.items) {
      // Items invalidated while still in the inbox (a cut during the same
      // global phase as the send) were never counted as deliveries here.
      if (!item.dropped) ++stats_.deliveries;
    }
    dispatch_chain(std::move(rc.packet), rc.sent_at, rc.items);
  }
  const std::uint64_t adopted = remote_merge_scratch_.size();
  remote_merge_scratch_.clear();
  return adopted;
}

void MulticastNetwork::release_chain(std::uint32_t index) {
  DeliveryChain& chain = chain_pool_[index];
  chain.packet = nullptr;
  chain.items = std::vector<ChainItem>();  // frees; `= {}` would only clear
  free_chains_.push_back(index);
}

void MulticastNetwork::dispatch_chain(std::shared_ptr<const Packet> packet,
                                      double sent_at,
                                      std::span<const ChainItem> walked) {
  assert(!walked.empty());
  std::uint32_t index;
  if (!free_chains_.empty()) {
    index = free_chains_.back();
    free_chains_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(chain_pool_.size());
    chain_pool_.emplace_back();
  }
  DeliveryChain& chain = chain_pool_[index];
  chain.packet = std::move(packet);
  chain.sent_at = sent_at;
  chain.cursor = 0;
  // The walk found receivers in the order eager scheduling would have drawn
  // sequence numbers in, so walk index i takes the reserved block's i-th:
  // firing by delay, walk order on ties, is then the eager scheme's
  // delivery order bit for bit.
  place_by_delay(walked, queue_->allocate_seqs(walked.size()), chain.items);
  schedule_next(index);
}

void MulticastNetwork::schedule_next(std::uint32_t index) {
  const DeliveryChain& chain = chain_pool_[index];
  const ChainItem& next = chain.items[chain.cursor];
  queue_->schedule_at_seq(chain.sent_at + next.delay, next.seq,
                          [this, index] { fire_chain(index); });
}

void MulticastNetwork::place_by_delay(std::span<const ChainItem> walked,
                                      std::uint64_t base,
                                      std::vector<ChainItem>& out) {
  const std::size_t n = walked.size();
  // 1. Count the items per distinct delay, in one pass over a table at
  // least twice their number.
  const std::size_t mask = std::bit_ceil(std::max<std::size_t>(2 * n, 16)) - 1;
  if (delay_table_.size() <= mask) delay_table_.resize(mask + 1, 0);
  item_slot_.resize(n);
  delay_classes_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double delay = walked[i].delay;
    std::uint64_t h = std::bit_cast<std::uint64_t>(delay);
    h = (h ^ (h >> 31)) * 0x9E3779B97F4A7C15ull;
    std::size_t slot = (h ^ (h >> 29)) & mask;
    while (delay_table_[slot] != 0 &&
           delay_classes_[delay_table_[slot] - 1].delay != delay) {
      slot = (slot + 1) & mask;
    }
    if (delay_table_[slot] == 0) {
      delay_classes_.push_back(
          DelayClass{delay, static_cast<std::uint32_t>(slot), 0});
      delay_table_[slot] = static_cast<std::uint32_t>(delay_classes_.size());
    }
    ++delay_classes_[delay_table_[slot] - 1].count;
    item_slot_[i] = static_cast<std::uint32_t>(slot);
  }
  // 2. Order the distinct delays; each one's block starts after the items
  // of every smaller delay.
  std::sort(delay_classes_.begin(), delay_classes_.end(),
            [](const DelayClass& a, const DelayClass& b) {
              return a.delay < b.delay;
            });
  std::uint32_t start = 0;
  for (const DelayClass& c : delay_classes_) {
    delay_table_[c.slot] = start;
    start += c.count;
  }
  // 3. Scatter in walk order to each delay's next position.
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ChainItem& item = out[delay_table_[item_slot_[i]]++];
    item = walked[i];
    item.seq = base + i;
  }
  for (const DelayClass& c : delay_classes_) delay_table_[c.slot] = 0;
}

void MulticastNetwork::fire_chain(std::uint32_t index) {
  // Under `sim` tracing every delivery stays one queued event, its
  // successor scheduled before it is delivered, so the sched and fire
  // records keep their order and slot handles.  Otherwise the successor is
  // delivered right here for as long as the queue confirms it is the event
  // its loop would execute next, and queued once it is not.
  const bool queued = queue_->tracer()->wants(trace::Category::kSim);
  for (;;) {
    DeliveryChain& chain = chain_pool_[index];
    const ChainItem item = chain.items[chain.cursor++];
    const bool last = chain.cursor == chain.items.size();
    // The chain owns the packet until its last delivery.
    const Packet* packet = chain.packet.get();
    std::shared_ptr<const Packet> owned;
    if (last) {
      // Freed first: the sink may multicast and recycle this very chain.
      owned = std::move(chain.packet);
      release_chain(index);
    } else if (queued) {
      schedule_next(index);
    }
    if (last || queued) {
      deliver(item, *packet);
      return;
    }
    try {
      deliver(item, *packet);
    } catch (...) {
      schedule_next(index);  // as if it had been queued before delivery
      throw;
    }
    // Re-read: the sink may have multicast and grown the pool.
    const DeliveryChain& rest = chain_pool_[index];
    const ChainItem& next = rest.items[rest.cursor];
    if (!queue_->run_inline(rest.sent_at + next.delay, next.seq)) {
      schedule_next(index);
      return;
    }
  }
}

void MulticastNetwork::deliver(const ChainItem& item, const Packet& packet) {
  if (item.dropped) return;  // invalidated by a link failure while in flight
  // Re-resolve the sink at fire time: the receiver may have detached
  // (member crash or leave) after this chain was built.
  PacketSink* const sink = sinks_[item.to];
  if (sink == nullptr) {
    --stats_.deliveries;
    ++stats_.in_flight_invalidated;
    return;
  }
  DeliveryInfo info;
  info.receiver = item.to;
  info.path_delay = item.delay;
  info.hops = item.hops;
  info.remaining_ttl = packet.ttl - item.hops;
  if (tracer_->wants(trace::Category::kNet)) {
    trace::Event ev;
    ev.type = trace::EventType::kNetDeliver;
    ev.t = queue_->now();
    ev.actor = info.receiver;
    ev.a = packet.group;
    ev.b = kind_of(packet);
    ev.c = packet.source;
    ev.d = static_cast<std::uint64_t>(info.hops);
    ev.x = info.path_delay;
    tracer_->emit(ev);
  }
  if (!receive_filter_ || !(*receive_filter_)(packet, info)) {
    sink->on_receive(packet, info);
  }
  if (delivery_observer_) delivery_observer_(packet, info);
}

double MulticastNetwork::distance(NodeId from, NodeId to) {
  const double d = try_distance(from, to);
  if (d == kInf) {
    throw std::runtime_error("MulticastNetwork::distance: unreachable");
  }
  return d;
}

int MulticastNetwork::hops(NodeId from, NodeId to) {
  const int h = try_hops(from, to);
  if (h < 0) throw std::runtime_error("MulticastNetwork::hops: unreachable");
  return h;
}

double MulticastNetwork::try_distance(NodeId from, NodeId to) {
  const Forest* f = forest();
  if (f == nullptr) return routing_.try_distance(from, to);
  if (from >= topo_->node_count()) {
    throw std::out_of_range("MulticastNetwork::try_distance: bad source");
  }
  double d = 0.0;
  const auto add = [&](LinkId, double delay) { d += delay; };
  return to < topo_->node_count() && forest_path(*f, from, to, add) ? d : kInf;
}

int MulticastNetwork::try_hops(NodeId from, NodeId to) {
  const Forest* f = forest();
  if (f == nullptr) return routing_.try_hop_count(from, to);
  if (from >= topo_->node_count()) {
    throw std::out_of_range("MulticastNetwork::try_hops: bad source");
  }
  int h = 0;
  const auto count = [&](LinkId, double) { ++h; };
  return to < topo_->node_count() && forest_path(*f, from, to, count) ? h : -1;
}

bool MulticastNetwork::path_uses_link(NodeId src, NodeId dst, LinkId link) {
  if (const Forest* f = forest()) {
    bool uses = false;
    forest_path(*f, src, dst, [&](LinkId l, double) { uses |= l == link; });
    return uses;
  }
  const Spt& t = routing_.spt(src);
  for (NodeId v = dst; v != src;) {
    if (v >= t.parent.size() || t.parent[v] == kInvalidNode) return false;
    if (t.parent_link[v] == link) return true;
    v = t.parent[v];
  }
  return false;
}

void MulticastNetwork::invalidate_in_flight(LinkId link) {
  for (MulticastNetwork* p : peers_) p->invalidate_in_flight_local(link);
}

void MulticastNetwork::invalidate_in_flight_local(LinkId link) {
  for (DeliveryChain& chain : chain_pool_) {
    if (!chain.packet) continue;
    for (std::uint32_t i = chain.cursor;
         i < static_cast<std::uint32_t>(chain.items.size()); ++i) {
      ChainItem& item = chain.items[i];
      if (item.dropped) continue;
      if (path_uses_link(chain.packet->source, item.to, link)) {
        item.dropped = true;
        --stats_.deliveries;
        ++stats_.in_flight_invalidated;
      }
    }
  }
  // Chains still in inbox lanes (sent in this same global phase, not yet
  // drained).  These were never counted as deliveries, so only the
  // invalidation counter moves; drain_remote() skips them when counting.
  for (std::vector<RemoteChain>& lane : inboxes_) {
    for (RemoteChain& rc : lane) {
      for (ChainItem& item : rc.items) {
        if (item.dropped) continue;
        if (path_uses_link(rc.packet->source, item.to, link)) {
          item.dropped = true;
          ++stats_.in_flight_invalidated;
        }
      }
    }
  }
}

void MulticastNetwork::unicast(NodeId from, NodeId to, Packet packet) {
  const std::uint64_t packet_ordinal =
      begin_send(from, packet, stats_.unicasts_sent);
  const std::vector<NodeId> p = routing_.path(from, to);
  double delay = 0.0;
  int ttl = packet.ttl;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const LinkId lid = topo_->link_between(p[i], p[i + 1]);
    const Link& l = topo_->link(lid);
    LinkEnd edge{p[i + 1], lid, l.delay, l.threshold};
    if (!hop_allowed(packet, ttl, edge, p[i], packet_ordinal)) {
      return;  // dropped en route
    }
    delay += l.delay;
    --ttl;
  }
  // A unicast to a departed member costs nothing.
  if (!attached_[to]) return;
  const ChainItem item{delay, 0, to, static_cast<int>(p.size()) - 1};
  auto shared = std::make_shared<const Packet>(std::move(packet));
  const std::uint32_t dest_region =
      region_map_ != nullptr ? region_map_->of[to] : self_region_;
  if (dest_region == self_region_) {
    ++stats_.deliveries;
    dispatch_chain(std::move(shared), queue_->now(), {&item, 1});
    return;
  }
  // Cross-region: a one-item remote chain, adopted and counted by the
  // owning network.
  peers_[dest_region]->accept_remote_chain(self_region_, remote_seq_++,
                                           std::move(shared), {item},
                                           queue_->now());
}

}  // namespace srm::net
