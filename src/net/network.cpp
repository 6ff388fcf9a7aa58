#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

namespace srm::net {

namespace {
const std::vector<NodeId> kNoMembers;

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
    policy->prepare(topo_->link_count());
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
  if (policy) policy->prepare(topo_->link_count());
  for (MulticastNetwork* p : peers_) p->fault_drop_policy_ = policy;
}

void MulticastNetwork::set_receive_filter(transport::ReceiveFilter filter) {
  using Filter = const transport::ReceiveFilter;
  std::shared_ptr<Filter> shared;
  if (filter) shared = std::make_shared<Filter>(std::move(filter));
  for (MulticastNetwork* p : peers_) p->receive_filter_ = shared;
}

bool MulticastNetwork::current(PrunedTree& entry) const {
  if (entry.membership_version == membership_version_ &&
      entry.topology_version == topo_->version()) {
    return true;
  }
  entry.membership_version = membership_version_;
  entry.topology_version = topo_->version();
  return false;
}

template <typename Children>
void MulticastNetwork::flatten(PrunedTree& entry, NodeId root,
                               const GroupState* gs,
                               const Children& children) {
  // parents[] remembers each step's parent step for the subtree-extent pass
  // below.
  struct BuildFrame {
    NodeId node;
    std::uint32_t parent_step;
  };
  std::vector<TraceStep>& steps = trace_steps_scratch_;
  std::vector<TraceEdge>& edges = trace_edges_scratch_;
  steps.clear();
  edges.clear();
  std::vector<BuildFrame> stack;
  std::vector<std::uint32_t> parents;
  stack.push_back(BuildFrame{root, 0});
  while (!stack.empty()) {
    const BuildFrame f = stack.back();
    stack.pop_back();
    const auto step_index = static_cast<std::uint32_t>(steps.size());
    TraceStep step;
    step.node = f.node;
    step.member = f.node != root && gs != nullptr && gs->test(f.node);
    step.subtree_end = step_index + 1;
    step.first_edge = static_cast<std::uint32_t>(edges.size());
    step.edge_count = 0;
    children(f.node, [&](NodeId child, LinkId link) {
      const Link& l = topo_->link(link);
      // child_step is patched when the child's step is emitted.
      edges.push_back(TraceEdge{child, link, l.delay, l.threshold, 0});
      stack.push_back(BuildFrame{child, step_index});
      ++step.edge_count;
    });
    steps.push_back(step);
    parents.push_back(f.parent_step);
    if (f.node != root) {
      // Patch the parent's edge that leads here.  Edges of one parent are
      // consulted in SPT-children order but their subtrees are emitted in
      // reverse (stack order), so search the parent's edge range.
      TraceStep& p = steps[f.parent_step];
      for (std::uint32_t e = p.first_edge; e < p.first_edge + p.edge_count;
           ++e) {
        if (edges[e].child == f.node) {
          edges[e].child_step = step_index;
          break;
        }
      }
    }
  }
  // Subtree extents: children always follow their parent, so a reverse scan
  // folds each step's extent into its parent's.
  for (std::uint32_t i = static_cast<std::uint32_t>(steps.size()); i > 1;
       --i) {
    const std::uint32_t j = i - 1;
    TraceStep& p = steps[parents[j]];
    p.subtree_end = std::max(p.subtree_end, steps[j].subtree_end);
  }
  // A cached trace lives until membership or topology changes, so it is
  // stored at its exact size rather than with push_back's doubling slack.
  entry.steps = std::vector<TraceStep>(steps.begin(), steps.end());
  entry.edges = std::vector<TraceEdge>(edges.begin(), edges.end());
}

const MulticastNetwork::PrunedTree& MulticastNetwork::pruned(NodeId root,
                                                             GroupId group) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(root) << 32) | static_cast<std::uint64_t>(group);
  PrunedTree& entry = pruned_cache_[key];
  if (current(entry)) return entry;
  const Spt& t = routing_.spt(root);

  // need[n]: node n lies on a path from the root to some group member.
  need_scratch_.assign(topo_->node_count(), false);
  const auto git = groups_.find(group);
  const GroupState* gs = git != groups_.end() ? &git->second : nullptr;
  if (gs != nullptr) {
    for (NodeId m : gs->sorted) {
      // Mark the path from the member back to the root; stop early when we
      // reach an already-marked node (shared prefix).
      NodeId v = m;
      while (!need_scratch_[v]) {
        need_scratch_[v] = true;
        if (v == root) break;
        if (t.parent[v] == kInvalidNode) break;  // unreachable member
        v = t.parent[v];
      }
    }
  }
  flatten(entry, root, gs, [&](NodeId node, const auto& emit) {
    for (NodeId child = t.first_child[node]; child != kInvalidNode;
         child = t.next_sibling[child]) {
      if (need_scratch_[child]) emit(child, t.parent_link[child]);
    }
  });
  return entry;
}

const MulticastNetwork::PrunedTree& MulticastNetwork::pruned_scoped(
    NodeId root, GroupId group, int ttl) {
  PrunedTree& entry = scoped_cache_[std::make_tuple(root, group, ttl)];
  if (current(entry)) return entry;

  const std::size_t n = topo_->node_count();
  if (scoped_stamp_.size() < n) {
    scoped_stamp_.resize(n, 0);
    scoped_done_.resize(n, 0);
    scoped_need_.resize(n, 0);
    scoped_dist_.resize(n, 0.0);
    scoped_hops_.resize(n, 0);
    scoped_parent_.resize(n, kInvalidNode);
    scoped_parent_link_.resize(n, 0);
  }
  const std::uint64_t gen = ++scoped_gen_;
  scoped_visited_.clear();
  scoped_children_.clear();

  // TTL-truncated Dijkstra with the canonical (dist, hops, node) keys and
  // (delay, hops, parent-id) improvement predicate of Routing::compute().
  // A finalized node's key is identical to the full SPT's whenever its
  // canonical hop depth is <= ttl (all its tree ancestors are shallower, so
  // truncation never hides the winning offer); only nodes within ttl hops
  // are ever finalized, and only nodes strictly inside the radius expand.
  using Key = std::tuple<double, int, NodeId>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> pq;
  scoped_stamp_[root] = gen;
  scoped_dist_[root] = 0.0;
  scoped_hops_[root] = 0;
  scoped_parent_[root] = root;
  pq.emplace(0.0, 0, root);
  while (!pq.empty()) {
    const auto [d, h, u] = pq.top();
    pq.pop();
    if (scoped_done_[u] == gen) continue;
    scoped_done_[u] = gen;
    scoped_visited_.push_back(u);
    if (h >= ttl) continue;  // within radius but must not expand further
    for (const LinkEnd& e : topo_->neighbors(u)) {
      const double nd = d + e.delay;
      const int nh = h + 1;
      const bool fresh = scoped_stamp_[e.peer] != gen;
      const bool better =
          fresh || nd < scoped_dist_[e.peer] ||
          (nd == scoped_dist_[e.peer] &&
           (nh < scoped_hops_[e.peer] ||
            (nh == scoped_hops_[e.peer] && u < scoped_parent_[e.peer])));
      if (scoped_done_[e.peer] != gen && better) {
        scoped_stamp_[e.peer] = gen;
        scoped_dist_[e.peer] = nd;
        scoped_hops_[e.peer] = nh;
        scoped_parent_[e.peer] = u;
        scoped_parent_link_[e.peer] = e.link;
        pq.emplace(nd, nh, e.peer);
      }
    }
  }

  // need-mark the path of every in-radius member back to the root; iterate
  // visited nodes (O(radius)), never the whole membership.
  const auto git = groups_.find(group);
  const GroupState* gs = git != groups_.end() ? &git->second : nullptr;
  if (gs != nullptr) {
    for (NodeId m : scoped_visited_) {
      if (!gs->test(m)) continue;
      NodeId v = m;
      while (scoped_need_[v] != gen) {
        scoped_need_[v] = gen;
        if (v == root) break;
        v = scoped_parent_[v];
      }
    }
  }

  // Children lists in canonical (ascending child id per parent) order, as a
  // sorted pair vector consumed via equal_range during the flatten.  With no
  // in-radius member the list is empty and the tree is the bare root step
  // multicast()'s walk needs.
  for (NodeId v : scoped_visited_) {
    if (v != root && scoped_need_[v] == gen) {
      scoped_children_.emplace_back(scoped_parent_[v], v);
    }
  }
  std::sort(scoped_children_.begin(), scoped_children_.end());
  flatten(entry, root, gs, [&](NodeId node, const auto& emit) {
    const auto range = std::equal_range(
        scoped_children_.begin(), scoped_children_.end(),
        std::make_pair(node, NodeId{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto it = range.first; it != range.second; ++it) {
      emit(it->second, scoped_parent_link_[it->second]);
    }
  });
  return entry;
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
                       queue_->now()};
  // Primary policy first; the fault slot is only consulted when the primary
  // passes, so a scripted round drop does not also advance burst-loss state.
  if (drop_policy_->should_drop(packet, hop) ||
      (fault_drop_policy_ && fault_drop_policy_->should_drop(packet, hop))) {
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

void MulticastNetwork::multicast(NodeId from, Packet packet) {
  const std::uint64_t packet_ordinal =
      begin_send(from, packet, stats_.multicasts_sent);
  const bool scoped = scoped_trees_enabled_ && packet.ttl < kMaxTtl &&
                      packet.scope == Scope::kGlobal;
  const PrunedTree& tree = scoped ? pruned_scoped(from, packet.group, packet.ttl)
                                  : pruned(from, packet.group);
  const auto shared = std::make_shared<const Packet>(std::move(packet));
  const Packet& pkt = *shared;

  const std::uint32_t chain_index = acquire_chain(shared);
  DeliveryChain& chain = chain_pool_[chain_index];

  // Linear walk of the flattened tree.  Each directed link is traversed
  // (and the drop policy consulted) at most once; a suppressed hop skips
  // its whole subtree via the precomputed extent.
  walk_scratch_.resize(tree.steps.size());
  walk_scratch_[0] = WalkState{0.0, pkt.ttl, 0, false};
  std::uint32_t i = 0;
  const auto step_count = static_cast<std::uint32_t>(tree.steps.size());
  while (i < step_count) {
    const TraceStep& s = tree.steps[i];
    const WalkState st = walk_scratch_[i];
    if (st.blocked) {
      i = s.subtree_end;
      continue;
    }
    if (s.member && attached_[s.node]) {
      const std::uint32_t reg =
          region_map_ != nullptr ? region_map_->of[s.node] : self_region_;
      if (reg == self_region_) {
        chain.items.push_back(ChainItem{st.delay, 0, s.node, st.hops});
        ++stats_.deliveries;
      } else {
        // Receiver lives in another region: bucket for a remote chain.
        // The owning network counts the delivery when it adopts the chain,
        // so increments and decrements stay on one network's counters.
        if (remote_buckets_[reg].empty()) touched_regions_.push_back(reg);
        remote_buckets_[reg].push_back(ChainItem{st.delay, 0, s.node, st.hops});
      }
    }
    for (std::uint32_t e = s.first_edge; e < s.first_edge + s.edge_count;
         ++e) {
      const TraceEdge& edge = tree.edges[e];
      WalkState& child = walk_scratch_[edge.child_step];
      if (hop_allowed(pkt, st.ttl,
                      LinkEnd{edge.child, edge.link, edge.delay,
                              edge.threshold},
                      s.node, packet_ordinal)) {
        child = WalkState{st.delay + edge.delay, st.ttl - 1, st.hops + 1,
                          false};
      } else {
        child.blocked = true;
      }
    }
    ++i;
  }
  dispatch_chain(chain_index, queue_->now());
  if (!touched_regions_.empty()) {
    // Ship each remote bucket as one chain.  Region index order makes the
    // per-origin chain counter — and thus the destination's drain order —
    // a pure function of the walk, independent of worker scheduling.
    std::sort(touched_regions_.begin(), touched_regions_.end());
    for (std::uint32_t reg : touched_regions_) {
      std::vector<ChainItem>& bucket = remote_buckets_[reg];
      std::stable_sort(bucket.begin(), bucket.end(),
                       [](const ChainItem& a, const ChainItem& b) {
                         return a.delay < b.delay;
                       });
      // Conservative-safety invariant: the path to another region crosses
      // the inter-region cut, so no remote arrival can undercut the kernel's
      // pair bound D(origin, dest).
      assert(kernel_ == nullptr ||
             bucket.front().delay >= kernel_->min_delay(self_region_, reg));
      peers_[reg]->accept_remote_chain(self_region_, remote_seq_++, shared,
                                       std::move(bucket), queue_->now());
      bucket = std::vector<ChainItem>();
    }
    touched_regions_.clear();
  }
}

std::uint32_t MulticastNetwork::acquire_chain(
    std::shared_ptr<const Packet> packet) {
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
  chain.cursor = 0;
  return index;
}

void MulticastNetwork::accept_remote_chain(std::uint32_t origin_region,
                                           std::uint64_t origin_seq,
                                           std::shared_ptr<const Packet> packet,
                                           std::vector<ChainItem> items,
                                           double sent_at) {
  RemoteChain rc;
  rc.first_arrival = sent_at + items.front().delay;
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
    const std::uint32_t index = acquire_chain(std::move(rc.packet));
    DeliveryChain& chain = chain_pool_[index];
    chain.items = std::move(rc.items);
    for (const ChainItem& item : chain.items) {
      // Items invalidated while still in the inbox (a cut during the same
      // global phase as the send) were never counted as deliveries here.
      if (!item.dropped) ++stats_.deliveries;
    }
    dispatch_chain(index, rc.sent_at);
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

void MulticastNetwork::dispatch_chain(std::uint32_t index, double sent_at) {
  DeliveryChain& chain = chain_pool_[index];
  if (chain.items.empty()) {
    release_chain(index);
    return;
  }
  chain.sent_at = sent_at;
  // The walk collected receivers in trace order, which is exactly the order
  // eager scheduling would have drawn sequence numbers in; assigning the
  // reserved block in that same order and then sorting by (delay, seq)
  // reproduces the eager scheme's delivery order bit-for-bit.
  const std::uint64_t base = queue_->allocate_seqs(chain.items.size());
  for (std::size_t i = 0; i < chain.items.size(); ++i) {
    chain.items[i].seq = base + i;
  }
  std::sort(chain.items.begin(), chain.items.end(),
            [](const ChainItem& a, const ChainItem& b) {
              if (a.delay != b.delay) return a.delay < b.delay;
              return a.seq < b.seq;
            });
  queue_->schedule_at_seq(sent_at + chain.items.front().delay,
                          chain.items.front().seq,
                          [this, index] { fire_chain(index); });
}

void MulticastNetwork::fire_chain(std::uint32_t index) {
  DeliveryChain& chain = chain_pool_[index];
  const ChainItem item = chain.items[chain.cursor++];
  std::shared_ptr<const Packet> packet;
  if (chain.cursor < chain.items.size()) {
    packet = chain.packet;
    const ChainItem& next = chain.items[chain.cursor];
    queue_->schedule_at_seq(chain.sent_at + next.delay, next.seq,
                            [this, index] { fire_chain(index); });
  } else {
    // Freed first: the sink may multicast and recycle this very chain.
    packet = std::move(chain.packet);
    release_chain(index);
  }
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
  info.remaining_ttl = packet->ttl - item.hops;
  if (tracer_->wants(trace::Category::kNet)) {
    trace::Event ev;
    ev.type = trace::EventType::kNetDeliver;
    ev.t = queue_->now();
    ev.actor = info.receiver;
    ev.a = packet->group;
    ev.b = kind_of(*packet);
    ev.c = packet->source;
    ev.d = static_cast<std::uint64_t>(info.hops);
    ev.x = info.path_delay;
    tracer_->emit(ev);
  }
  if (!receive_filter_ || !(*receive_filter_)(*packet, info)) {
    sink->on_receive(*packet, info);
  }
  if (delivery_observer_) delivery_observer_(*packet, info);
}

bool MulticastNetwork::path_uses_link(NodeId src, NodeId dst, LinkId link) {
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
    const std::uint32_t index = acquire_chain(std::move(shared));
    chain_pool_[index].items.push_back(item);
    ++stats_.deliveries;
    dispatch_chain(index, queue_->now());
    return;
  }
  // Cross-region: a one-item remote chain, adopted and counted by the
  // owning network.
  assert(kernel_ == nullptr ||
         delay >= kernel_->min_delay(self_region_, dest_region));
  peers_[dest_region]->accept_remote_chain(self_region_, remote_seq_++,
                                           std::move(shared), {item},
                                           queue_->now());
}

bool scoped_tree_exact(const Topology& topo) {
  if (topo.connected() && topo.link_count() + 1 == topo.node_count()) {
    return true;
  }
  const auto& links = topo.links();
  return std::all_of(links.begin(), links.end(), [&](const Link& l) {
    return l.delay == links.front().delay;
  });
}

}  // namespace srm::net
