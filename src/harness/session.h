// A complete simulated SRM session: event queue, multicast network over a
// topology, member directory, and one SrmAgent per member node.
// This is the top-level object benches, examples and integration tests
// construct; everything in it is deterministic given the seed.
//
// Two kernels, one facade.  With Options::kernel_threads == 0 (default) the
// session runs on a single sequential EventQueue, exactly as before.  With
// kernel_threads >= 1 it runs on the conservative parallel kernel
// (sim/pdes.h): the topology is partitioned into regions (region_map.h),
// each region gets its own EventQueue and MulticastNetwork, agents live on
// their region's network, and run() executes safe windows on
// kernel_threads workers.  The region count is a pure function of the
// topology (kernel_regions, or an automatic size), never of the thread
// count, so results — figure stats, traces, recovery invariants — are
// bit-identical across kernel_threads 1/2/8.  queue() exposes the kernel's
// serialized global queue: harness drivers and fault injectors schedule
// there, so topology mutation and membership churn always observe a
// quiescent world.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "net/region_map.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/pdes.h"
#include "srm/agent.h"
#include "srm/config.h"
#include "srm/session_hierarchy.h"
#include "util/rng.h"

namespace srm::harness {

class SimSession {
 public:
  struct Options {
    SrmConfig srm;
    std::uint64_t seed = 1;
    net::GroupId group = 1;
    // 0 = sequential kernel (legacy single EventQueue).  >= 1 = parallel
    // kernel with this many workers; 1 still exercises the full region/
    // window machinery (the reference point PDES determinism tests compare
    // higher thread counts against).
    unsigned kernel_threads = 0;
    // Target region count for the parallel kernel; 0 picks a size from the
    // node count.  Ignored when kernel_threads == 0.  Must be kept fixed
    // when comparing runs: the region map, not the worker count, is what
    // event order depends on.
    std::uint32_t kernel_regions = 0;
  };

  // Builds the world and starts an agent at every node in `member_nodes`.
  // Member Source-IDs equal their node ids (a simulator convenience; the
  // directory still mediates every id -> node lookup).
  SimSession(net::Topology topo, std::vector<net::NodeId> member_nodes,
             Options options);

  // The control queue: the sequential kernel's only queue, or the parallel
  // kernel's serialized global queue.  Schedule harness/fault events here.
  sim::EventQueue& queue() {
    return kernel_ ? kernel_->global_queue() : queue_;
  }
  // The control network (region 0 under the parallel kernel).  Control-plane
  // calls (drop policies, receive filter, membership, invalidate_in_flight)
  // fan out to every region from any network: the handle for harness code.
  // Per-region stats live on the individual networks (see network_stats()).
  net::MulticastNetwork& network() { return *nets_.front(); }
  net::MulticastNetwork& network(std::size_t region) { return *nets_.at(region); }
  std::size_t network_count() const { return nets_.size(); }
  // Session-wide totals (sum over regions; equals network().stats() when
  // sequential).
  net::NetworkStats network_stats() const;

  // Runs until no queue has work left.  Returns events executed.  Under the
  // parallel kernel this also folds the per-region trace lanes into the
  // user's sink (see set_tracer).
  std::size_t run();
  // Runs until virtual time `t_end` (events at exactly t_end execute;
  // clocks advance to t_end).  The handle for steady-state workloads that
  // never drain — hierarchy-mode session reporting reschedules forever, so
  // benches and tests measure a fixed horizon instead.
  std::size_t run_until(double t_end);
  // Virtual time: max over all queues (all clocks agree between runs).
  double now() const { return kernel_ ? kernel_->now() : queue_.now(); }

  // Parallel-kernel introspection (null/empty when sequential).
  sim::ParallelKernel* kernel() { return kernel_.get(); }
  const net::RegionMap& region_map() const { return region_map_; }
  unsigned kernel_threads() const { return options_.kernel_threads; }

  const net::Topology& topology() const { return topo_; }
  // Mutable access for fault injection (link dynamics).  The network and
  // every routing cache revalidate via Topology::version().
  net::Topology& mutable_topology() { return topo_; }
  MemberDirectory& directory() { return directory_; }
  util::Rng& rng() { return rng_; }
  const Options& options() const { return options_; }

  const std::vector<net::NodeId>& member_nodes() const {
    return member_nodes_;
  }
  std::size_t member_count() const { return member_nodes_.size(); }

  SrmAgent& agent_at(net::NodeId node);
  SrmAgent& agent(std::size_t index) { return *agents_.at(index); }

  // Two-level session reporting (Options::srm.hierarchy.enabled;
  // ARCHITECTURE.md §12).  Null when hierarchy mode is off.  The session
  // owns the coordinator; members are attached with the area the topology
  // partition assigned their node, and add_member/remove_member keep the
  // attachment in sync with membership churn.
  SessionHierarchy* hierarchy() { return hierarchy_.get(); }
  // Local-area partition (valid only in hierarchy mode): area_map().of[node]
  // is the area whose representative aggregates that node's reports.
  const net::RegionMap& area_map() const { return area_map_; }
  bool has_member(net::NodeId node) const {
    return index_of_.count(node) != 0;
  }

  // --- membership dynamics (fault injection / churn) -----------------------

  // Starts a new member at `node` (Source-ID = node id, as in the
  // constructor).  The agent inherits the session's config, group and
  // tracer.  Throws std::logic_error if the node already hosts a member.
  SrmAgent& add_member(net::NodeId node);

  // Stops and destroys the member at `node`.  Graceful departure sends one
  // final session message first (a leaving member saying goodbye); a crash
  // (graceful=false) is silent.  Either way the agent leaves the group,
  // cancels its timers, detaches from the network and unbinds from the
  // directory before destruction.  Throws if the node hosts no member.
  void remove_member(net::NodeId node, bool graceful = true);

  // Applies fn to every agent.
  template <typename Fn>
  void for_each_agent(Fn&& fn) {
    for (auto& a : agents_) fn(*a);
  }

  // Points the whole world (event queues, networks, every agent) at one
  // Tracer.  The caller owns the tracer and its sink and keeps both alive
  // for the session's lifetime; &trace::Tracer::null() detaches.  Tracers
  // are per-session, never shared across ReplicationRunner workers, which
  // is what keeps traces bit-identical across --threads values.
  //
  // Parallel kernel: components emit into one internal lane per queue
  // (global + each region) — sinks are not thread-safe, lanes are — and
  // run() merges the lanes into the caller's sink ordered by (time, lane),
  // global lane first on ties.  The merged stream is identical for every
  // kernel_threads value.  Set the tracer's mask before calling set_tracer;
  // later mask changes are picked up at the next set_tracer call.  Anything
  // scheduled on the global queue (e.g. a FaultInjector) should emit via
  // control_tracer() so its events take part in the same merge.
  void set_tracer(trace::Tracer* tracer);
  // The tracer components on the global/control queue should emit through:
  // the global trace lane under the parallel kernel, or the user's tracer
  // when sequential.
  trace::Tracer* control_tracer();

 private:
  struct TraceLane {
    trace::VectorSink sink;
    trace::Tracer tracer;
  };

  net::MulticastNetwork& net_of(net::NodeId node) {
    return *nets_[region_map_.of[node]];
  }
  trace::Tracer* lane_tracer(net::NodeId node);
  void merge_lane_traces();

  net::Topology topo_;
  sim::EventQueue queue_;  // sequential kernel (unused when kernel_ set)
  std::unique_ptr<sim::ParallelKernel> kernel_;
  net::RegionMap region_map_;
  std::vector<std::unique_ptr<net::MulticastNetwork>> nets_;
  // lanes_[0] = global queue, lanes_[1 + r] = region r.  Empty sequentially.
  std::vector<std::unique_ptr<TraceLane>> lanes_;
  MemberDirectory directory_;
  util::Rng rng_;
  Options options_;
  std::vector<net::NodeId> member_nodes_;
  std::vector<std::unique_ptr<SrmAgent>> agents_;
  std::unordered_map<net::NodeId, std::size_t> index_of_;
  net::RegionMap area_map_;  // hierarchy areas (independent of kernel regions)
  // Declared after agents_: destroyed first, so its destructor can still
  // unchain the agents' hooks.
  std::unique_ptr<SessionHierarchy> hierarchy_;
  trace::Tracer* tracer_ = &trace::Tracer::null();
};

}  // namespace srm::harness
