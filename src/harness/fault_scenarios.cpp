#include "harness/fault_scenarios.h"

#include <algorithm>
#include <stdexcept>

namespace srm::harness {

namespace {

// Nodes reachable from `start` without traversing link `skip`.
std::vector<net::NodeId> reachable_without(const net::Topology& topo,
                                           net::NodeId start,
                                           net::LinkId skip) {
  std::vector<bool> seen(topo.node_count(), false);
  std::vector<net::NodeId> stack{start};
  seen[start] = true;
  std::vector<net::NodeId> out;
  while (!stack.empty()) {
    const net::NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (const net::LinkEnd& e : topo.neighbors(n)) {
      if (e.link == skip || seen[e.peer]) continue;
      seen[e.peer] = true;
      stack.push_back(e.peer);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool contains(const std::vector<net::NodeId>& sorted, net::NodeId n) {
  return std::binary_search(sorted.begin(), sorted.end(), n);
}

}  // namespace

fault::MembershipHooks membership_hooks(SimSession& session) {
  fault::MembershipHooks hooks;
  hooks.join = [&session](net::NodeId node) {
    if (!session.has_member(node)) session.add_member(node);
  };
  hooks.leave = [&session](net::NodeId node, bool graceful) {
    if (session.has_member(node)) session.remove_member(node, graceful);
  };
  return hooks;
}

fault::Conformance check_conformance(SimSession& session,
                                     const std::vector<trace::Event>& events) {
  return fault::check_conformance(
      events, [&session](std::uint64_t member, std::uint64_t source) {
        return session.network().try_distance(
            static_cast<net::NodeId>(member),
            static_cast<net::NodeId>(source));
      });
}

fault::FaultPlan partition_heal_plan(const net::Topology& topo,
                                     net::NodeId root, double t_down,
                                     double t_heal, util::Rng& rng,
                                     std::vector<net::NodeId>* island_out) {
  if (topo.link_count() == 0) {
    throw std::invalid_argument("partition_heal_plan: topology has no links");
  }
  const auto link = static_cast<net::LinkId>(rng.uniform_int(
      0, static_cast<std::int64_t>(topo.link_count()) - 1));
  const net::Link& l = topo.link(link);
  // The island is the side of the chosen link not containing the root.  On
  // a tree every link separates the graph in two; on a general graph where
  // the link is not a cut edge, fall back to the single far endpoint (the
  // partition event still cuts every boundary link of that island).
  std::vector<net::NodeId> island = reachable_without(topo, l.b, link);
  if (contains(island, root)) {
    island = reachable_without(topo, l.a, link);
    if (contains(island, root)) {
      island = {root == l.b ? l.a : l.b};
    }
  }
  if (island_out != nullptr) *island_out = island;
  fault::FaultPlan plan;
  plan.partition(t_down, std::move(island));
  plan.heal(t_heal, 0);
  return plan;
}

fault::FaultPlan churn_plan(const std::vector<net::NodeId>& members,
                            net::NodeId keep, std::size_t cycles,
                            double t_begin, double t_end, double downtime,
                            bool crash, util::Rng& rng) {
  std::vector<net::NodeId> pool;
  for (net::NodeId n : members) {
    if (n != keep) pool.push_back(n);
  }
  if (pool.empty()) {
    throw std::invalid_argument("churn_plan: no members eligible for churn");
  }
  fault::FaultPlan plan;
  for (std::size_t i = 0; i < cycles; ++i) {
    const net::NodeId victim = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const double t = rng.uniform(t_begin, t_end);
    if (crash) {
      plan.crash(t, victim);
    } else {
      plan.leave(t, victim);
    }
    plan.rejoin(t + downtime, victim);
  }
  return plan;
}

}  // namespace srm::harness
