// Fault-scenario builders: canned FaultPlans for the network-dynamics
// experiments (Sec. III-D robustness), plus the wiring that connects a
// FaultInjector's membership events to a SimSession's agents and the
// conformance fold to its network.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/conformance.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/session.h"
#include "net/routing.h"
#include "net/topology.h"
#include "util/rng.h"

namespace srm::harness {

// MembershipHooks that create/stop SrmAgents in `session`: join/rejoin adds
// a member at the node (no-op if already present), leave/crash removes it
// (no-op if absent) — fault plans can then be replayed against sessions
// whose membership already drifted.  The session must outlive the injector.
fault::MembershipHooks membership_hooks(SimSession& session);

// The conformance fold (fault/conformance.h) over a trace of `session`, its
// hold-down rule judged against the session network's ground-truth
// distances as they stand now.
fault::Conformance check_conformance(SimSession& session,
                                     const std::vector<trace::Event>& events);

// A partition/heal round trip: at `t_down`, cut `island` (chosen as the
// subtree under a random tree link so the cut severs exactly one link on a
// tree topology); at `t_heal`, restore it.  `island_out` (optional) receives
// the chosen island.
fault::FaultPlan partition_heal_plan(const net::Topology& topo,
                                     net::NodeId root, double t_down,
                                     double t_heal, util::Rng& rng,
                                     std::vector<net::NodeId>* island_out =
                                         nullptr);

// Membership churn: `cycles` leave/rejoin (or crash/rejoin) pairs spread
// uniformly over [t_begin, t_end), each hitting a random member of
// `members` (excluding `keep` — typically the data source).  `downtime` is
// how long a member stays away before rejoining.
fault::FaultPlan churn_plan(const std::vector<net::NodeId>& members,
                            net::NodeId keep, std::size_t cycles,
                            double t_begin, double t_end, double downtime,
                            bool crash, util::Rng& rng);

// Link flapping: `flaps` down/up cycles of `link`, starting at `t_begin`,
// `period` seconds apart, each outage lasting `downtime` seconds.
fault::FaultPlan link_flap_plan(net::LinkId link, std::size_t flaps,
                                double t_begin, double period,
                                double downtime);

}  // namespace srm::harness
