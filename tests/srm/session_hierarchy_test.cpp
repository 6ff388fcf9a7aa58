// Tests for hierarchical session messages (Sec. IX-A; ARCHITECTURE.md §12):
// the session-level coordinator, leaderless election, area digests, timer-
// wheel batching, and representative-crash healing under the parallel
// kernel.
#include "srm/session_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/fault_scenarios.h"
#include "harness/session.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "trace/trace.h"

namespace srm {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

// Manual-attach world: a flat SimSession plus one coordinator the test
// wires itself, so area assignment is explicit.
struct HierWorld {
  HierWorld(net::Topology topo, std::vector<net::NodeId> members,
            HierarchyConfig hcfg, std::uint32_t areas, std::uint64_t seed)
      : session(std::move(topo), std::move(members), {SrmConfig{}, seed, 1}),
        hierarchy(session.directory(), hcfg, areas, seed) {}

  void attach_all(const std::vector<std::uint32_t>& area_of_member) {
    std::size_t i = 0;
    session.for_each_agent(
        [&](SrmAgent& a) { hierarchy.attach(a, area_of_member[i++]); });
    hierarchy.start();
  }

  harness::SimSession session;
  SessionHierarchy hierarchy;
};

// Two clusters of 4 members each, joined by a long path of non-member
// routers.  local_ttl = 3 covers a cluster but not the far one.
net::Topology two_cluster_topo() {
  net::Topology topo(0);
  for (int i = 0; i < 16; ++i) topo.add_node();
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(2, 3);
  topo.add_link(3, 8);
  topo.add_link(8, 9);
  topo.add_link(9, 10);
  topo.add_link(10, 11);
  topo.add_link(11, 4);
  topo.add_link(4, 5);
  topo.add_link(5, 6);
  topo.add_link(6, 7);
  return topo;
}

TEST(SessionHierarchyTest, LowestIdBecomesLocalRepresentative) {
  HierarchyConfig hcfg;
  hcfg.enabled = true;
  hcfg.local_ttl = 3;
  hcfg.report_interval = 5.0;
  HierWorld w(two_cluster_topo(), {0, 1, 2, 3, 4, 5, 6, 7}, hcfg,
              /*areas=*/2, /*seed=*/3);
  w.attach_all({0, 0, 0, 0, 1, 1, 1, 1});

  w.session.queue().run_until(100.0);
  // Cluster A (members 0..3): representative 0.  Cluster B (4..7): rep 4.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(w.hierarchy.representative_of(w.session.agent_at(i)), 0u) << i;
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(w.hierarchy.representative_of(w.session.agent_at(i)), 4u) << i;
  }
  EXPECT_TRUE(w.hierarchy.is_representative(w.session.agent_at(0)));
  EXPECT_FALSE(w.hierarchy.is_representative(w.session.agent_at(1)));
  EXPECT_TRUE(w.hierarchy.is_representative(w.session.agent_at(4)));
}

TEST(SessionHierarchyTest, OnlyRepresentativesReportGlobally) {
  auto topo = topo::make_chain(6);
  HierarchyConfig hcfg;
  hcfg.enabled = true;
  hcfg.local_ttl = 10;  // one area: everyone local to everyone
  hcfg.report_interval = 5.0;
  HierWorld w(std::move(topo), all_nodes(6), hcfg, /*areas=*/1, /*seed=*/4);
  w.attach_all({0, 0, 0, 0, 0, 0});
  w.session.queue().run_until(100.0);
  EXPECT_GT(w.hierarchy.global_reports_sent(w.session.agent_at(0)), 0u);
  std::uint64_t locals = 0;
  std::uint64_t globals = 0;
  for (int i = 0; i < 6; ++i) {
    locals += w.hierarchy.local_reports_sent(w.session.agent_at(i));
    globals += w.hierarchy.global_reports_sent(w.session.agent_at(i));
    if (i == 0) continue;
    // Non-representatives may have sent an early global report before they
    // first heard member 0, but must settle to local-only.
    EXPECT_GT(w.hierarchy.local_reports_sent(w.session.agent_at(i)), 0u) << i;
    EXPECT_LE(w.hierarchy.global_reports_sent(w.session.agent_at(i)), 3u) << i;
  }
  // Session-wide totals agree with the per-member counters.
  EXPECT_EQ(w.hierarchy.local_reports_sent(), locals);
  EXPECT_EQ(w.hierarchy.global_reports_sent(), globals);
}

TEST(SessionHierarchyTest, RepresentativeFailureHealsByStaleness) {
  auto topo = topo::make_chain(4);
  HierarchyConfig hcfg;
  hcfg.enabled = true;
  hcfg.local_ttl = 10;
  hcfg.report_interval = 5.0;
  HierWorld w(std::move(topo), all_nodes(4), hcfg, /*areas=*/1, /*seed=*/5);
  w.attach_all({0, 0, 0, 0});
  w.session.queue().run_until(60.0);
  EXPECT_EQ(w.hierarchy.representative_of(w.session.agent_at(1)), 0u);

  // Member 0 crashes; after the staleness horizon member 1 takes over.
  w.hierarchy.detach(w.session.agent_at(0));
  w.session.agent_at(0).stop();
  w.session.queue().run_until(
      60.0 + SessionHierarchy::kStalenessIntervals * hcfg.report_interval +
      2 * hcfg.report_interval);
  EXPECT_EQ(w.hierarchy.representative_of(w.session.agent_at(1)), 1u);
  EXPECT_TRUE(w.hierarchy.is_representative(w.session.agent_at(1)));
  EXPECT_EQ(w.hierarchy.representative_of(w.session.agent_at(3)), 1u);
}

TEST(SessionHierarchyTest, AreaDigestsDriveGroupSizeEstimate) {
  HierarchyConfig hcfg;
  hcfg.enabled = true;
  hcfg.local_ttl = 3;
  hcfg.report_interval = 5.0;
  HierWorld w(two_cluster_topo(), {0, 1, 2, 3, 4, 5, 6, 7}, hcfg,
              /*areas=*/2, /*seed=*/7);
  w.attach_all({0, 0, 0, 0, 1, 1, 1, 1});
  w.session.queue().run_until(100.0);
  // Every member sees 4 live locals (itself included) and learns the other
  // cluster's 4 from its representative's digest — never tracking remote
  // members individually.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(w.hierarchy.estimated_group_size(w.session.agent_at(i)), 8u)
        << i;
    EXPECT_EQ(w.hierarchy.live_local_peers(w.session.agent_at(i)), 3u) << i;
  }
}

TEST(SessionHierarchyTest, RejoinIntoAnotherAreaClearsSlotRecords) {
  HierarchyConfig hcfg;
  hcfg.enabled = true;
  hcfg.local_ttl = 3;
  hcfg.report_interval = 5.0;
  HierWorld w(two_cluster_topo(), {0, 1, 2, 3, 4, 5, 6, 7}, hcfg,
              /*areas=*/2, /*seed=*/13);
  w.attach_all({0, 0, 0, 0, 1, 1, 1, 1});
  w.session.queue().run_until(100.0);
  SrmAgent& moved = w.session.agent_at(1);
  ASSERT_EQ(w.hierarchy.live_local_peers(moved), 3u);
  ASSERT_EQ(w.hierarchy.representative_of(moved), 0u);

  // Re-join into area 1: what member 1 heard is indexed by area 0's slots,
  // so it must not be read as area 1's.
  w.hierarchy.detach(moved);
  w.hierarchy.attach(moved, 1);
  EXPECT_EQ(w.hierarchy.area_of(moved), 1u);
  EXPECT_EQ(w.hierarchy.live_local_peers(moved), 0u);
  EXPECT_EQ(w.hierarchy.representative_of(moved), 1u);

  // Its cluster neighbours are area 0 and area 1's members are out of
  // local reach, so it keeps hearing no local peer and represents itself.
  w.session.queue().run_until(150.0);
  EXPECT_EQ(w.hierarchy.live_local_peers(moved), 0u);
  EXPECT_TRUE(w.hierarchy.is_representative(moved));
  for (int i : {0, 2, 3}) {
    EXPECT_EQ(w.hierarchy.live_local_peers(w.session.agent_at(i)), 2u) << i;
  }
}

TEST(SessionHierarchyTest, WheelOccupancyGrowsWithAreasNotMembers) {
  // One LAN, 64 members: the event heap must hold O(buckets) wheel entries,
  // not one per member.
  auto tl = topo::make_tree_of_lans(1, 2, 64);
  HierarchyConfig hcfg;
  hcfg.enabled = true;
  hcfg.local_ttl = 2;
  hcfg.report_interval = 10.0;
  HierWorld w(std::move(tl.topo), tl.workstations, hcfg, /*areas=*/1,
              /*seed=*/9);
  std::vector<std::uint32_t> areas(64, 0);
  w.attach_all(areas);

  // After start(): every member has a pending report but the initial
  // stagger spans one interval, so at most kWheelBuckets+1 heap entries.
  EXPECT_EQ(w.hierarchy.pending_wheel_items(), 64u);
  EXPECT_LE(w.hierarchy.pending_wheel_buckets(),
            SessionHierarchy::kWheelBuckets + 1);

  // Steady state: intervals spread over [0.5, 1.5] x interval, still
  // bounded by the bucket count of that window, independent of G.
  w.session.queue().run_until(100.0);
  EXPECT_EQ(w.hierarchy.pending_wheel_items(), 64u);
  EXPECT_LE(w.hierarchy.pending_wheel_buckets(),
            2 * SessionHierarchy::kWheelBuckets + 2);
}

TEST(SessionHierarchyTest, ReducesWideAreaSessionTraffic) {
  // A tree of LANs: 5 routers, 6 workstations each.  Compare wide-area
  // (backbone) session-message deliveries, flat vs hierarchy-mode
  // SimSession, over the same duration and per-member reporting rate.
  auto count_backbone_session_crossings = [](bool hierarchical,
                                             std::uint64_t seed) {
    auto tl = topo::make_tree_of_lans(5, 3, 6);
    SrmConfig cfg;
    if (hierarchical) {
      cfg.hierarchy.enabled = true;
      cfg.hierarchy.local_ttl = 2;  // host -> router -> sibling host
      cfg.hierarchy.report_interval = 5.0;
      cfg.hierarchy.areas = 5;
    }
    harness::SimSession session(std::move(tl.topo), tl.workstations,
                                {cfg, seed, 1});
    std::uint64_t backbone_crossings = 0;
    session.network().set_delivery_observer(
        [&](const net::Packet& p, const net::DeliveryInfo& info) {
          if (dynamic_cast<const SessionMessage*>(p.payload.get()) &&
              info.hops > 2) {
            ++backbone_crossings;
          }
        });
    if (hierarchical) {
      session.run_until(200.0);
    } else {
      // Flat: everyone reports globally at the same mean interval.
      util::Rng rng(seed);
      for (int round = 0; round < 40; ++round) {
        session.for_each_agent([&](SrmAgent& a) {
          session.queue().schedule_after(
              5.0 * round + rng.uniform(0.0, 5.0),
              [&a] { a.send_session_message(); });
        });
      }
      session.queue().run_until(200.0);
    }
    return backbone_crossings;
  };

  const auto flat = count_backbone_session_crossings(false, 11);
  const auto hier = count_backbone_session_crossings(true, 11);
  EXPECT_LT(hier, flat / 3)
      << "hierarchy should cut wide-area session traffic several-fold";
}

TEST(SessionHierarchyTest, ScopesCyclicMixedDelayTopology) {
  // Triangle 0-1 (1 s), 1-2 (1 s), 0-2 (5 s): node 2's shortest-delay path
  // from node 0 is two hops, so a TTL-1 multicast from node 0 must reach
  // node 1 only.  The session's scoped walk reads that same tree, so it
  // does not reach node 2 over the one-hop 5 s link either.
  net::Topology topo(3);
  topo.add_link(0, 1, 1.0);
  topo.add_link(1, 2, 1.0);
  topo.add_link(0, 2, 5.0);
  SrmConfig cfg;
  cfg.hierarchy.enabled = true;
  harness::SimSession session(std::move(topo), all_nodes(3), {cfg, 3, 1});
  EXPECT_TRUE(session.network().scoped_walk());

  struct Probe : net::Message {
    std::string describe() const override { return "PROBE"; }
  };
  std::vector<net::NodeId> reached;
  session.network().set_delivery_observer(
      [&](const net::Packet& p, const net::DeliveryInfo& info) {
        if (dynamic_cast<const Probe*>(p.payload.get())) {
          reached.push_back(info.receiver);
        }
      });
  net::Packet probe;
  probe.group = 1;
  probe.ttl = 1;
  probe.payload = std::make_shared<Probe>();
  session.network().multicast(0, probe);
  session.queue().run_until(10.0);
  EXPECT_EQ(reached, std::vector<net::NodeId>{1});

  // Trees and uniform-delay graphs scope too; flat sessions keep the full
  // walk.
  auto tl = topo::make_tree_of_lans(3, 2, 3);
  harness::SimSession lans(std::move(tl.topo), tl.workstations, {cfg, 3, 1});
  EXPECT_TRUE(lans.network().scoped_walk());
  harness::SimSession ring(topo::make_ring(8), all_nodes(8), {cfg, 3, 1});
  EXPECT_TRUE(ring.network().scoped_walk());
  harness::SimSession flat(topo::make_ring(8), all_nodes(8),
                           {SrmConfig{}, 3, 1});
  EXPECT_FALSE(flat.network().scoped_walk());
}

// --- representative crash under FaultPlan + parallel kernel ---------------

bool events_equal(const trace::Event& a, const trace::Event& b) {
  return a.type == b.type && a.t == b.t && a.actor == b.actor && a.a == b.a &&
         a.b == b.b && a.c == b.c && a.d == b.d && a.e == b.e && a.x == b.x &&
         a.y == b.y;
}

struct CrashOutcome {
  SourceId rep_before = 0;
  SourceId rep_after = 0;
  SourceId expected_after = 0;
  net::NodeId probe = 0;  // surviving member the reps were queried from
  std::vector<trace::Event> events;
};

// Warm up a hierarchy-mode session on a tree of LANs, crash the area-0
// representative via a FaultPlan at t=60, and run one staleness horizon
// plus scheduling slack past the crash.
CrashOutcome run_rep_crash(std::uint64_t seed, unsigned kernel_threads) {
  auto tl = topo::make_tree_of_lans(4, 3, 6);
  SrmConfig cfg;
  cfg.hierarchy.enabled = true;
  cfg.hierarchy.local_ttl = 2;
  cfg.hierarchy.report_interval = 5.0;
  cfg.hierarchy.areas = 4;
  harness::SimSession::Options opts{cfg, seed, /*group=*/1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = 4;
  harness::SimSession session(std::move(tl.topo), tl.workstations, opts);

  trace::VectorSink capture;
  trace::Tracer tracer;
  tracer.set_sink(&capture);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                  static_cast<std::uint32_t>(trace::Category::kNet));
  session.set_tracer(&tracer);

  session.run_until(40.0);

  CrashOutcome out;
  // The victim: current representative of workstation[0]'s area (the
  // smallest live Source-ID there) — a pure function of the topology, so
  // identical for every seed and thread count.
  SrmAgent& first = session.agent_at(tl.workstations.front());
  const SourceId victim = session.hierarchy()->representative_of(first);
  out.rep_before = victim;
  const std::uint32_t area = session.hierarchy()->area_of(first);
  // Expected successor: next-smallest member of the same area.
  out.expected_after = victim;
  for (net::NodeId n : tl.workstations) {
    if (session.area_map().of[n] != area) continue;
    const auto id = static_cast<SourceId>(n);
    if (id > victim &&
        (out.expected_after == victim || id < out.expected_after)) {
      out.expected_after = id;
    }
    if (out.probe == 0 && id != victim) out.probe = n;
  }

  fault::FaultPlan plan;
  plan.crash(60.0, static_cast<net::NodeId>(victim));
  fault::FaultInjector injector(session.queue(), session.mutable_topology(),
                                session.network(), std::move(plan),
                                session.rng().fork());
  injector.set_membership_hooks(harness::membership_hooks(session));
  injector.set_tracer(session.control_tracer());
  injector.arm();

  // One staleness horizon (3 x 5s) past the crash, plus slack for the last
  // pre-crash report to age out: the survivors must have re-elected.
  session.run_until(60.0 + 3.0 * 5.0 + 3.0);
  out.rep_after =
      session.hierarchy()->representative_of(session.agent_at(out.probe));
  out.events = capture.events();
  return out;
}

TEST(SessionHierarchyTest, RepresentativeCrashHealsDeterministically) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CrashOutcome base = run_rep_crash(seed, 1);
    EXPECT_NE(base.rep_before, base.expected_after) << "seed " << seed;
    EXPECT_EQ(base.rep_after, base.expected_after)
        << "seed " << seed << ": survivors must re-elect the next-lowest "
        << "live member within one staleness interval of the crash";
    for (const unsigned threads : {2u, 8u}) {
      const CrashOutcome other = run_rep_crash(seed, threads);
      EXPECT_EQ(other.rep_before, base.rep_before);
      EXPECT_EQ(other.rep_after, base.rep_after);
      ASSERT_EQ(other.events.size(), base.events.size())
          << "seed " << seed << " threads " << threads;
      for (std::size_t i = 0; i < base.events.size(); ++i) {
        ASSERT_TRUE(events_equal(base.events[i], other.events[i]))
            << "seed " << seed << " threads " << threads
            << ": first trace divergence at event " << i;
      }
    }
  }
}

}  // namespace
}  // namespace srm
