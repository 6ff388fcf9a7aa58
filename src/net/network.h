// Simulated IP multicast network.
//
// Implements the IP multicast group-delivery model the paper builds on
// (Sec. I): senders transmit to a group address with no knowledge of the
// membership; receivers join/leave independently.  Delivery follows the
// source-rooted shortest-path tree, pruned to subtrees containing members
// (DVMRP-style), with per-hop TTL decrement, Mbone TTL thresholds, optional
// administrative scoping, and loss injected by a DropPolicy.
//
// Hot-path layout: group membership is a per-group bitmap plus a sorted
// member list (O(1) is_member, O(1) members()), and every delivery of one
// transmission shares a single immutable Packet.  One walker delivers every
// multicast down its sender's shortest-path tree.  While the up-link graph
// is acyclic — every topology the paper evaluates — that tree is the one
// undirected tree re-rooted, so the network keeps a single rooted forest
// (O(nodes), whatever the number of senders) and answers walks, TTL
// scoping and distances from it; on a graph with a cycle the walker reads
// Routing's tree of the sender instead (ARCHITECTURE.md §0).  It is also
// the simulator's transport::Transport backend (ARCHITECTURE.md §13): one
// object hosts every endpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/drop_policy.h"
#include "net/packet.h"
#include "net/region_map.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/pdes.h"
#include "trace/trace.h"
#include "transport/transport.h"

namespace srm::net {

struct NetworkStats {
  std::uint64_t multicasts_sent = 0;      // transmissions initiated
  std::uint64_t unicasts_sent = 0;
  std::uint64_t link_transmissions = 0;   // directed link traversals
  std::uint64_t deliveries = 0;           // packets handed to sinks
  std::uint64_t drops = 0;                // hops suppressed by DropPolicy
  std::uint64_t ttl_prunes = 0;           // hops suppressed by TTL/threshold
  std::uint64_t in_flight_invalidated = 0;  // deliveries lost to link/member
                                            // dynamics after being scheduled
};

class MulticastNetwork final : public transport::Transport {
 public:
  // A sequential network is region 0 of one region: its own only peer.
  // Peers (and, under the parallel kernel, the kernel's drain hook) hold
  // `this`, so a network is never copied or moved.
  MulticastNetwork(sim::EventQueue& queue, const Topology& topo);
  MulticastNetwork(const MulticastNetwork&) = delete;
  MulticastNetwork& operator=(const MulticastNetwork&) = delete;

  // --- Conservative-PDES mode (region-scoped operation) ------------------
  // Under the parallel kernel there is one MulticastNetwork per region, each
  // bound to that region's EventQueue; a sequential network is the same
  // machinery with a single region whose only peer is itself.  A sender's
  // network walks the full member-pruned tree (the whole walk — TTL,
  // scoping, drop-policy consultations — happens at send time on the
  // sender's thread), but receivers in other regions are bucketed per
  // region and handed to the owning peer as a remote delivery chain through
  // a single-writer inbox lane.  The kernel's drain pass adopts those chains
  // into the destination's pool — first-class, so link-failure invalidation
  // still sees them — in deterministic (first arrival, origin region, origin
  // seq) order.  Control-plane calls (attach/detach, join/leave, drop
  // policies, the receive filter, invalidate_in_flight) fan out to every
  // peer and are only legal from serialized phases (setup or global events),
  // never from a region event.
  //
  // Must be called once per region network, before any attach/join, with
  // peers indexed by region (peers[self_region] == this).  Registers this
  // network's drain hook with the kernel.
  void enable_pdes(sim::ParallelKernel* kernel, const RegionMap* map,
                   std::uint32_t self_region,
                   std::vector<MulticastNetwork*> peers);
  bool pdes_enabled() const { return kernel_ != nullptr; }
  std::uint32_t self_region() const { return self_region_; }

  // Registers the protocol agent living at node n.  At most one sink per
  // node; the sink must outlive the network or be detached first.
  // PDES mode: call on the network owning n's region; the attachment flag
  // fans out so every sender's walk sees the same membership the sequential
  // kernel would.
  void attach(NodeId n, PacketSink* sink) override;
  void detach(NodeId n) override;

  void join(GroupId g, NodeId n) override;
  void leave(GroupId g, NodeId n) override;
  bool is_member(GroupId g, NodeId n) const;
  // Members in ascending NodeId order.  The store is kept sorted, so this
  // is O(1); the reference is invalidated by the next join/leave.
  const std::vector<NodeId>& members(GroupId g) const;

  // Loss injection; pass nullptr to clear.  Not owned exclusively: callers
  // usually keep a reference to rearm scripted drops between rounds.
  void set_drop_policy(std::shared_ptr<DropPolicy> policy);

  // Second, independent loss slot owned by the fault subsystem (bursty-loss
  // epochs).  Kept separate from set_drop_policy so experiment harnesses that
  // install per-round scripted drops do not clobber an active fault policy.
  // Consulted after the primary policy; pass nullptr to clear.
  void set_fault_drop_policy(std::shared_ptr<DropPolicy> policy);
  const std::shared_ptr<DropPolicy>& fault_drop_policy() const {
    return fault_drop_policy_;
  }

  // Link-failure support.  Packets already in flight were routed over the
  // old topology; any scheduled delivery whose (old) path crosses `link` is
  // marked lost and silently skipped when its event fires.  MUST be called
  // BEFORE Topology::set_link_up(link, false) — it traces paths over the
  // current topology, which then still describes the pre-failure routes.
  void invalidate_in_flight(LinkId link);

  // TTL-scoped walks for hierarchy-mode local reports (ARCHITECTURE.md
  // §12).  When enabled, a globally-scoped multicast sent with TTL <
  // kMaxTtl first marks, in one pass over the sender's tree out to `ttl`
  // hops, the paths to the members inside that radius, and walks only
  // those: O(area) per send instead of the O(nodes) full walk, which is
  // what makes per-member local session reports affordable at G = 50k.
  // The scoped walk consults, in the full walk's order, exactly the full
  // walk's hops toward members inside the radius, so with keyed or no drop
  // policies both walks deliver the same on every topology.  Hops toward
  // members beyond the radius are never consulted, so TTL-prune counts and
  // link transmissions fall; this is off by default so flat-path traces
  // keep the full walk's counts.  harness::SimSession enables it for every
  // hierarchy session.
  void set_scoped_walk(bool on) { scoped_walk_ = on; }
  bool scoped_walk() const { return scoped_walk_; }

  // Scripted receive-side loss; an empty filter clears it.  Consulted where
  // the sink would be called: after the delivery is counted and traced,
  // before the delivery observer.  Every region network shares the one
  // filter object, like the drop policies, and calls it on the receiver's
  // region worker.
  void set_receive_filter(transport::ReceiveFilter filter) override;

  // Sends to all members of packet.group other than the sender itself.
  // packet.source is overwritten with `from`.
  void multicast(NodeId from, Packet packet) override;

  // Point-to-point delivery along the shortest path (used by baselines such
  // as unicast NACK schemes); subject to the same drop policy per hop.
  void unicast(NodeId from, NodeId to, Packet packet);

  // One-way path delay / hop count oracle (ground truth; SRM agents normally
  // use session-message estimates instead).  The try_ variants return
  // infinity / -1 instead of throwing when `to` is unreachable — the normal
  // case for callers racing with fault-injected partitions.
  // On a forest these sum link delays along the unique path, starting at
  // `from` — the order Dijkstra adds them in, so each equals Routing's bit
  // for bit.
  double distance(NodeId from, NodeId to);
  int hops(NodeId from, NodeId to);
  double try_distance(NodeId from, NodeId to) override;
  int try_hops(NodeId from, NodeId to);

  Routing& routing() { return routing_; }
  const Topology& topology() const { return *topo_; }
  std::uint64_t topology_version() const override { return topo_->version(); }
  sim::EventQueue& queue() override { return *queue_; }
  const sim::EventQueue& queue() const override { return *queue_; }

  const NetworkStats& stats() const { return stats_; }
  void reset_stats() { stats_ = NetworkStats{}; }

  // Optional observer invoked for every delivered packet (after the sink);
  // used by the experiment harness to collect per-round message counts.
  using DeliveryObserver =
      std::function<void(const Packet&, const DeliveryInfo&)>;
  void set_delivery_observer(DeliveryObserver obs) {
    delivery_observer_ = std::move(obs);
  }
  // Optional observer invoked for every transmission initiated (multicast or
  // unicast), before any propagation.
  using SendObserver = std::function<void(NodeId from, const Packet&)>;
  void set_send_observer(SendObserver obs) { send_observer_ = std::move(obs); }

  // Current observers, so instrumentation (e.g. a loss round's counters)
  // can chain rather than replace.
  const DeliveryObserver& delivery_observer() const {
    return delivery_observer_;
  }
  const SendObserver& send_observer() const { return send_observer_; }

  // Structured tracing (net category: send/deliver/drop/prune with link,
  // TTL and group context).  Never pass nullptr; &trace::Tracer::null()
  // detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

 private:
  struct GroupState {
    std::vector<std::uint64_t> bits;  // one bit per node
    std::vector<NodeId> sorted;       // ascending node ids
    // Forest mode: below[n] counts the members in n's subtree under the
    // forest's fixed rooting; current while below_version equals the
    // network's membership version (0 = stale).
    std::vector<std::uint32_t> below;
    std::uint64_t below_version = 0;

    bool test(NodeId n) const {
      return (bits[n >> 6] >> (n & 63)) & 1u;
    }
  };

  // The up-link graph rooted once, at each component's lowest id.  While
  // the graph is acyclic every sender's shortest-path tree is this forest
  // re-rooted at the sender: a node's children are its up links minus the
  // one toward the sender, and the path to any node is unique, so one
  // O(nodes) structure replaces a tree per sender.
  struct Forest {
    std::uint64_t topology_version = ~std::uint64_t{0};  // never built
    bool acyclic = false;  // false leaves every other field empty
    // Node n's up links, ascending by peer id: ends[first[n] .. first[n+1]).
    std::vector<std::uint32_t> first;
    std::vector<LinkEnd> ends;
    // Fixed rooting; a root is its own parent and its component's id.
    std::vector<NodeId> parent;
    std::vector<LinkId> parent_link;
    std::vector<double> parent_delay;
    std::vector<std::uint32_t> depth;
    std::vector<NodeId> component;
    std::vector<NodeId> order;  // parents before children
  };

  // One receiver of a transmission in flight; see chain_pool_.
  struct ChainItem {
    double delay;       // path delay from the sender
    std::uint64_t seq;  // pre-assigned event-queue tie-break
    NodeId to;
    int hops;
    bool dropped = false;  // invalidated by a link failure after scheduling
  };

  // The forest of the current topology, rebuilt when its version moved;
  // nullptr while the up links contain a cycle.
  const Forest* forest();
  void rebuild_forest();
  // walk() on the forest re-rooted at `root`.  An unscoped send skips the
  // hops with no member beyond them by the forest's member counts, a
  // scoped one by mark().
  void walk_forest(const Forest& f, NodeId root, const Packet& pkt,
                   std::uint64_t packet_ordinal, bool scoped, GroupState& gs);
  // walk() on Routing's tree `t` of a graph with a cycle.  An unscoped
  // send marks each member's path by climbing its parent chain, a scoped
  // one by mark().
  void walk_spt(const Spt& t, const Packet& pkt, std::uint64_t packet_ordinal,
                bool scoped, const GroupState& gs);
  // The one walker, a stack DFS from `root`.  children(node, prev, visit)
  // calls visit(hop) for each child of `node` (reached from `prev`) in
  // ascending id; the walk consults every hop with needed(node, child)
  // true and pushes the allowed ones, so the highest-id child's subtree is
  // walked first.  That fixes the order of drop-policy draws, `net` trace
  // events and the FIFO tie-breaks of the collected receivers.
  template <typename Children, typename Needed>
  void walk(NodeId root, const Packet& pkt, std::uint64_t packet_ordinal,
            const GroupState& gs, const Children& children,
            const Needed& needed);
  // Marks, in a new generation, the nodes on the tree paths from `root` to
  // the members within `radius` hops of it.
  template <typename Children>
  void mark(NodeId root, const GroupState& gs, int radius,
            const Children& children);
  // Starts a marking generation, sizing the stamps on first use.
  std::uint64_t next_mark();
  bool marked(NodeId n) const { return marked_[n] == mark_gen_; }
  // Member counts below each node for `gs` under the current forest.
  const std::vector<std::uint32_t>& forest_below(const Forest& f,
                                                 GroupState& gs);
  // Calls visit(link, delay) for each link of the forest path from -> to,
  // in order from `from`; false when `to` lies in another component.
  template <typename Visit>
  bool forest_path(const Forest& f, NodeId from, NodeId to,
                   const Visit& visit);
  // A walked member's receiver bookkeeping: attached in this region, it
  // joins walked_; attached in another, its region's bucket.
  void collect(NodeId node, double delay, int hops);
  // Send prologue shared by multicast() and unicast(): stamps the source,
  // counts the send, notifies the send observer and traces kNetSend.
  // Returns the packet's per-source transmission ordinal.
  std::uint64_t begin_send(NodeId from, Packet& packet,
                           std::uint64_t& sent_counter);
  // Puts `walked` (receivers in walk order, at least one) in flight as one
  // chain sent at `sent_at` and schedules its first delivery.
  void dispatch_chain(std::shared_ptr<const Packet> packet, double sent_at,
                      std::span<const ChainItem> walked);
  // Writes `walked` into `out` at its exact size, stably by delay, walk
  // item i taking seq `base + i`.
  void place_by_delay(std::span<const ChainItem> walked, std::uint64_t base,
                      std::vector<ChainItem>& out);
  // Returns a chain to the free list with its packet and item storage.
  void release_chain(std::uint32_t index);
  // Queues the delivery at the chain's cursor under its reserved key.
  void schedule_next(std::uint32_t index);
  // Delivers the item at the cursor, and the ones after it while each is
  // the queue's next event (EventQueue::run_inline); queues the rest.
  void fire_chain(std::uint32_t index);
  // Hands one chain item to its sink, unless it was dropped in flight or
  // the sink detached.
  void deliver(const ChainItem& item, const Packet& packet);
  void join_local(GroupId g, NodeId n);
  void leave_local(GroupId g, NodeId n);
  void invalidate_in_flight_local(LinkId link);
  bool hop_allowed(const Packet& packet, int ttl_at_from, const LinkEnd& edge,
                   NodeId from, std::uint64_t packet_ordinal);
  // Composes the sending node with its per-source transmission counter into
  // the stable packet ordinal keyed drop policies consume.  Deterministic
  // across kernels: a node's sends all flow through the network owning its
  // region, in event-order-equivalent order.
  std::uint64_t next_send_ordinal(NodeId from) {
    return (static_cast<std::uint64_t>(from) << 40) |
           (send_ordinal_[from]++ & ((std::uint64_t{1} << 40) - 1));
  }
  // True if the shortest path src -> dst traverses `link` (either
  // direction).  Used only by invalidate_in_flight.
  bool path_uses_link(NodeId src, NodeId dst, LinkId link);

  sim::EventQueue* queue_;
  const Topology* topo_;
  Routing routing_;
  std::vector<PacketSink*> sinks_;
  std::unordered_map<GroupId, GroupState> groups_;
  std::uint64_t membership_version_ = 1;
  Forest forest_;
  bool scoped_walk_ = false;
  // Member-path marks: marked_[n] == mark_gen_ puts n on a member path of
  // the current send, so marking touches only the nodes it marks, with no
  // O(nodes) clear.
  std::uint64_t mark_gen_ = 0;
  std::vector<std::uint64_t> marked_;
  std::vector<NodeId> mark_parent_;  // the walk's way back to the root
  std::shared_ptr<DropPolicy> drop_policy_;
  std::shared_ptr<DropPolicy> fault_drop_policy_;
  std::shared_ptr<const transport::ReceiveFilter> receive_filter_;
  NetworkStats stats_;
  DeliveryObserver delivery_observer_;
  SendObserver send_observer_;
  trace::Tracer* tracer_ = &trace::Tracer::null();

  // Reused stack for walk() and mark() (events never interrupt a walk).
  struct WalkFrame {
    NodeId node;
    NodeId prev;  // the neighbor toward the sender; kInvalidNode at it
    double delay;
    int ttl;
    int hops;
  };
  std::vector<WalkFrame> walk_stack_;
  // forest_path(): the links below the lowest common ancestor, to -> up.
  std::vector<std::pair<LinkId, double>> path_scratch_;

  // In-flight deliveries, one chain per transmission: a multicast's walk
  // collects every receiver, reserves the whole block of event-queue
  // sequence numbers up front (walk index i takes the block's i-th), and
  // places the receivers stably by delay; a unicast is a one-item chain.
  // At most the chain's NEXT delivery lives in the event heap.  A firing
  // delivers its item and then, while the queue confirms that the
  // following one is the event its loop would run next
  // (EventQueue::run_inline), delivers that one too; the first that is not
  // goes into the heap under its pre-assigned (time, seq) key.  Most
  // deliveries of a burst never touch the heap, and the heap holds at most
  // one entry per in-flight transmission instead of one per receiver — a
  // large-session round goes from hundreds of thousands of pending heap
  // entries (every sift a cache miss) to a few hundred — while deliveries
  // execute in exactly the order eager per-receiver scheduling would have.
  // Under `sim` tracing every delivery is queued, so the trace shows one
  // scheduled and fired event per delivery.  Chains are referenced
  // from event closures by index, so a transmission copies its Packet once
  // and each closure stays within std::function's inline buffer.  The sink
  // is re-resolved at fire time: the receiver may detach between sending
  // and delivery (member crash/leave), and a link failure may mark an item
  // `dropped`.  A chain gives its item storage back when its last delivery
  // fires, so the pool holds the items of the transmissions in flight, not
  // the largest multicast each chain carried.
  struct DeliveryChain {
    std::shared_ptr<const Packet> packet;
    std::vector<ChainItem> items;  // by delay, walk order on ties
    double sent_at = 0.0;
    std::uint32_t cursor = 0;
  };
  std::vector<DeliveryChain> chain_pool_;
  std::vector<std::uint32_t> free_chains_;
  // multicast(): this region's receivers of the send being walked.
  std::vector<ChainItem> walked_;
  // place_by_delay() scratch.  A chain's receivers have few distinct
  // delays (on a tree of LANs often one), so instead of sorting the items
  // it counts them per delay in one pass over an open-address table, orders
  // the distinct delays, and scatters each item to its delay's next
  // position.  Delays are finite (Topology::add_link) sums starting from
  // +0.0, so equal values have equal bits.
  struct DelayClass {
    double delay;
    std::uint32_t slot;   // its delay_table_ slot
    std::uint32_t count;  // items with this delay
  };
  std::vector<DelayClass> delay_classes_;  // first-seen order, then by delay
  // Slot -> 1 + class index while counting, then the class's next position;
  // all zero between placements.
  std::vector<std::uint32_t> delay_table_;
  std::vector<std::uint32_t> item_slot_;  // walk index -> its delay's slot

  // --- Region state (one region, no inboxes, in sequential mode) ---------
  // A delivery chain crossing a region boundary, in flight between the
  // sender's walk and the destination's drain pass.  Items keep the path
  // delay measured from the original sender; the destination re-bases them
  // on sent_at when it adopts the chain, so arrival times are exactly what
  // the sequential kernel would compute.
  struct RemoteChain {
    std::shared_ptr<const Packet> packet;
    std::vector<ChainItem> items;  // walk order, at their exact size
    double sent_at = 0.0;
    double first_arrival = 0.0;    // sent_at + the smallest item delay
    std::uint32_t origin_region = 0;
    std::uint64_t origin_seq = 0;  // per-origin monotonic chain counter
  };
  // Ships one chain to this (destination) network; runs on the ORIGIN's
  // thread, touching only the origin's inbox lane.  During a window each
  // lane has exactly one writer (the origin region's worker) and no reader;
  // drain_remote() runs between windows with no region executing.
  void accept_remote_chain(std::uint32_t origin_region,
                           std::uint64_t origin_seq,
                           std::shared_ptr<const Packet> packet,
                           std::vector<ChainItem> items, double sent_at);
  // Kernel drain hook: adopts inbox chains into the local pool in
  // (first_arrival, origin_region, origin_seq) order; returns how many.
  std::uint64_t drain_remote();

  sim::ParallelKernel* kernel_ = nullptr;
  const RegionMap* region_map_ = nullptr;
  std::uint32_t self_region_ = 0;
  std::vector<MulticastNetwork*> peers_;  // by region; {this} when sequential
  // Global attachment map, maintained in every mode: region-scoped walks
  // must see remote receivers exactly as a sequential walk would see their
  // sinks.  In sequential mode attached_[n] mirrors sinks_[n] != nullptr.
  std::vector<std::uint8_t> attached_;
  // Per-source transmission counters feeding next_send_ordinal().  Indexed
  // by sender; only the network owning the sender's region ever increments
  // a given slot, so no synchronization is needed.
  std::vector<std::uint64_t> send_ordinal_;
  std::vector<std::vector<RemoteChain>> inboxes_;  // [origin region]
  std::uint64_t remote_seq_ = 0;
  std::vector<RemoteChain> remote_merge_scratch_;
  // multicast() walk scratch: items destined for other regions, per region,
  // in walk order; each is shipped as a copy at its exact size.
  std::vector<std::vector<ChainItem>> remote_buckets_;
  std::vector<std::uint32_t> touched_regions_;
};

}  // namespace srm::net
