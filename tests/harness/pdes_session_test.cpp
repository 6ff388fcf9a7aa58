// End-to-end determinism of the parallel (PDES) kernel at the session
// level: the figure scenarios and the fault-injection acceptance scenario
// must produce bit-identical statistics AND bit-identical merged traces for
// every kernel thread count (the region map being fixed), and statistics
// identical to the sequential kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "fault/checker.h"
#include "net/drop_policy.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/fault_scenarios.h"
#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "topo/builders.h"
#include "trace/trace.h"

namespace srm {
namespace {

bool events_equal(const trace::Event& a, const trace::Event& b) {
  return a.type == b.type && a.t == b.t && a.actor == b.actor && a.a == b.a &&
         a.b == b.b && a.c == b.c && a.d == b.d && a.e == b.e && a.x == b.x &&
         a.y == b.y;
}

void expect_traces_identical(const std::vector<trace::Event>& a,
                             const std::vector<trace::Event>& b,
                             const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(events_equal(a[i], b[i]))
        << what << ": first divergence at event " << i << " (t=" << a[i].t
        << " vs t=" << b[i].t << ")";
  }
}

void expect_rounds_identical(const harness::RoundResult& a,
                             const harness::RoundResult& b, const char* what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.repairs, b.repairs) << what;
  EXPECT_EQ(a.affected, b.affected) << what;
  EXPECT_EQ(a.recovered, b.recovered) << what;
  EXPECT_EQ(a.link_transmissions, b.link_transmissions) << what;
  EXPECT_EQ(a.members_reached_by_repair, b.members_reached_by_repair) << what;
  EXPECT_EQ(a.last_member_delay_rtt, b.last_member_delay_rtt) << what;
  EXPECT_EQ(a.max_delay_seconds, b.max_delay_seconds) << what;
  EXPECT_EQ(a.closest_request_delay_valid, b.closest_request_delay_valid)
      << what;
  EXPECT_EQ(a.closest_request_delay_rtt, b.closest_request_delay_rtt) << what;
  EXPECT_EQ(a.request_times, b.request_times) << what;
  EXPECT_EQ(a.repair_times, b.repair_times) << what;
}

void expect_stats_identical(const net::NetworkStats& a,
                            const net::NetworkStats& b, const char* what) {
  EXPECT_EQ(a.multicasts_sent, b.multicasts_sent) << what;
  EXPECT_EQ(a.unicasts_sent, b.unicasts_sent) << what;
  EXPECT_EQ(a.link_transmissions, b.link_transmissions) << what;
  EXPECT_EQ(a.deliveries, b.deliveries) << what;
  EXPECT_EQ(a.drops, b.drops) << what;
  EXPECT_EQ(a.ttl_prunes, b.ttl_prunes) << what;
}

// --- figure-style scenarios ------------------------------------------------

enum class Fig { kRandomTree, kDenseTree, kAdaptive };

struct FigOutcome {
  std::vector<harness::RoundResult> rounds;
  net::NetworkStats stats;
  std::vector<trace::Event> events;
  double end_time = 0.0;
};

// One figure scenario (fig3-style random tree / fig4-style dense tree /
// fig12-style adaptive run), three loss rounds, full trace capture.
// kernel_threads == 0 runs the sequential kernel.
FigOutcome run_fig(Fig fig, std::uint64_t seed, unsigned kernel_threads,
                   std::uint32_t kernel_regions) {
  util::Rng rng(seed);
  net::Topology topo = fig == Fig::kRandomTree
                           ? topo::make_random_tree(160, rng)
                           : topo::make_bounded_degree_tree(200, 4);
  std::vector<net::NodeId> all(topo.node_count());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<net::NodeId>(i);
  }
  rng.shuffle(all);
  std::vector<net::NodeId> members(all.begin(), all.begin() + 40);
  std::sort(members.begin(), members.end());
  const net::NodeId source = members[rng.index(members.size())];

  SrmConfig cfg;
  cfg.timers = paper_fixed_params(members.size());
  cfg.backoff_factor = 3.0;
  cfg.adaptive.enabled = fig == Fig::kAdaptive;

  harness::SimSession::Options opts{cfg, seed, /*group=*/1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = kernel_regions;
  harness::SimSession session(std::move(topo), members, opts);

  trace::VectorSink capture;
  trace::Tracer tracer;
  tracer.set_sink(&capture);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                  static_cast<std::uint32_t>(trace::Category::kNet));
  session.set_tracer(&tracer);

  harness::RoundSpec spec;
  spec.source_node = source;
  spec.congested = harness::choose_congested_link(
      session.network().routing(), source, members, rng);
  spec.page = PageId{static_cast<SourceId>(source), 0};

  FigOutcome out;
  for (int r = 0; r < 3; ++r) {
    out.rounds.push_back(
        harness::run_loss_round(session, spec, static_cast<SeqNo>(r * 2)));
  }
  out.stats = session.network_stats();
  out.events = capture.events();
  out.end_time = session.now();
  return out;
}

class PdesFigureTest : public ::testing::TestWithParam<Fig> {};

TEST_P(PdesFigureTest, BitIdenticalAcrossKernelThreadCounts) {
  // Fixed region map (4 regions), varying worker count: everything —
  // per-round figure stats, network totals, the merged trace — must match
  // bit for bit.
  const FigOutcome t1 = run_fig(GetParam(), 97, 1, 4);
  const FigOutcome t2 = run_fig(GetParam(), 97, 2, 4);
  const FigOutcome t8 = run_fig(GetParam(), 97, 8, 4);
  ASSERT_EQ(t1.rounds.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    expect_rounds_identical(t1.rounds[r], t2.rounds[r], "threads 1 vs 2");
    expect_rounds_identical(t1.rounds[r], t8.rounds[r], "threads 1 vs 8");
  }
  expect_stats_identical(t1.stats, t2.stats, "threads 1 vs 2");
  expect_stats_identical(t1.stats, t8.stats, "threads 1 vs 8");
  EXPECT_EQ(t1.end_time, t2.end_time);
  EXPECT_EQ(t1.end_time, t8.end_time);
  expect_traces_identical(t1.events, t2.events, "threads 1 vs 2");
  expect_traces_identical(t1.events, t8.events, "threads 1 vs 8");
  EXPECT_FALSE(t1.events.empty());
}

TEST_P(PdesFigureTest, StatsMatchSequentialKernel) {
  // The parallel kernel must be event-order equivalent to the sequential
  // one: every statistic the figures plot agrees exactly.  (The trace
  // streams are compared across thread counts above, not against the
  // sequential kernel, whose emission order at equal timestamps is its own.)
  const FigOutcome seq = run_fig(GetParam(), 1995, 0, 0);
  const FigOutcome par = run_fig(GetParam(), 1995, 2, 4);
  ASSERT_EQ(seq.rounds.size(), par.rounds.size());
  for (std::size_t r = 0; r < seq.rounds.size(); ++r) {
    expect_rounds_identical(seq.rounds[r], par.rounds[r], "seq vs parallel");
  }
  expect_stats_identical(seq.stats, par.stats, "seq vs parallel");
  EXPECT_EQ(seq.end_time, par.end_time);
}

INSTANTIATE_TEST_SUITE_P(Figures, PdesFigureTest,
                         ::testing::Values(Fig::kRandomTree, Fig::kDenseTree,
                                           Fig::kAdaptive));

// --- stochastic loss under PDES --------------------------------------------

enum class Stoch { kRandomDrop, kGilbertElliott, kBurstPlan };

struct StochOutcome {
  std::vector<harness::RoundResult> rounds;  // completed rounds only
  std::size_t disrupted = 0;                 // rounds eaten by the loss
  net::NetworkStats stats;
  std::vector<trace::Event> events;
  double end_time = 0.0;
};

// Three loss rounds with background stochastic loss in the fault policy
// slot: an always-on keyed RandomDrop, an always-on keyed Gilbert-Elliott
// chain, or a fault-plan burst epoch installed by the injector mid-run.
// The stochastic draws are keyed by stable hop coordinates, so the whole
// scenario must stay deterministic across kernels and thread counts.
StochOutcome run_stochastic(Stoch mode, std::uint64_t seed,
                            unsigned kernel_threads,
                            std::uint32_t kernel_regions) {
  util::Rng rng(seed);
  net::Topology topo = topo::make_random_tree(80, rng);
  std::vector<net::NodeId> all(topo.node_count());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<net::NodeId>(i);
  }
  rng.shuffle(all);
  std::vector<net::NodeId> members(all.begin(), all.begin() + 20);
  std::sort(members.begin(), members.end());
  const net::NodeId source = members[rng.index(members.size())];

  SrmConfig cfg;
  cfg.timers = paper_fixed_params(members.size());
  cfg.backoff_factor = 3.0;
  harness::SimSession::Options opts{cfg, seed, /*group=*/1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = kernel_regions;
  harness::SimSession session(std::move(topo), members, opts);

  trace::VectorSink capture;
  trace::Tracer tracer;
  tracer.set_sink(&capture);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                  static_cast<std::uint32_t>(trace::Category::kNet));
  session.set_tracer(&tracer);

  // Rare, short bursts: the default chain (5% burst entry per slot per
  // link, mean burst 2 slots, 100% loss) makes recovery retries stretch
  // virtual time far enough to dominate the test's runtime.  The keying —
  // not the loss rate — is what's under test.
  net::GilbertElliottDrop::Params ge;
  ge.p_good_bad = 0.01;
  ge.p_bad_good = 0.5;
  std::unique_ptr<fault::FaultInjector> injector;
  switch (mode) {
    case Stoch::kRandomDrop:
      session.network().set_fault_drop_policy(
          std::make_shared<net::RandomDrop>(0.03, seed ^ 0x5EEDF00Dull));
      break;
    case Stoch::kGilbertElliott:
      session.network().set_fault_drop_policy(
          std::make_shared<net::GilbertElliottDrop>(ge, seed ^ 0xB00B5ull));
      break;
    case Stoch::kBurstPlan: {
      fault::FaultPlan plan;
      plan.burst_on(10.0, ge);
      plan.burst_off(200.0);
      injector = std::make_unique<fault::FaultInjector>(
          session.queue(), session.mutable_topology(), session.network(),
          std::move(plan), session.rng().fork());
      injector->set_tracer(session.control_tracer());
      injector->arm();
      break;
    }
  }

  harness::RoundSpec spec;
  spec.source_node = source;
  spec.congested = harness::choose_congested_link(
      session.network().routing(), source, members, rng);
  spec.page = PageId{static_cast<SourceId>(source), 0};
  StochOutcome out;
  for (int r = 0; r < 3; ++r) {
    try {
      out.rounds.push_back(
          harness::run_loss_round(session, spec, static_cast<SeqNo>(r * 2)));
    } catch (const std::exception&) {
      // Background loss can eat the scripted drop's packet upstream of the
      // congested link; all kernels must agree on *which* rounds die.
      ++out.disrupted;
    }
  }
  out.stats = session.network_stats();
  out.events = capture.events();
  out.end_time = session.now();
  return out;
}

class PdesStochasticTest : public ::testing::TestWithParam<Stoch> {};

TEST_P(PdesStochasticTest, BitIdenticalAcrossKernelThreadCounts) {
  const StochOutcome t1 = run_stochastic(GetParam(), 31, 1, 4);
  const StochOutcome t2 = run_stochastic(GetParam(), 31, 2, 4);
  const StochOutcome t8 = run_stochastic(GetParam(), 31, 8, 4);
  // At least one round must survive the background loss, or the per-round
  // comparisons below are vacuous (pick a different seed if this trips).
  ASSERT_FALSE(t1.rounds.empty());
  EXPECT_EQ(t1.disrupted, t2.disrupted);
  EXPECT_EQ(t1.disrupted, t8.disrupted);
  ASSERT_EQ(t1.rounds.size(), t2.rounds.size());
  ASSERT_EQ(t1.rounds.size(), t8.rounds.size());
  for (std::size_t r = 0; r < t1.rounds.size(); ++r) {
    expect_rounds_identical(t1.rounds[r], t2.rounds[r], "threads 1 vs 2");
    expect_rounds_identical(t1.rounds[r], t8.rounds[r], "threads 1 vs 8");
  }
  expect_stats_identical(t1.stats, t2.stats, "threads 1 vs 2");
  expect_stats_identical(t1.stats, t8.stats, "threads 1 vs 8");
  EXPECT_EQ(t1.end_time, t2.end_time);
  EXPECT_EQ(t1.end_time, t8.end_time);
  expect_traces_identical(t1.events, t2.events, "threads 1 vs 2");
  expect_traces_identical(t1.events, t8.events, "threads 1 vs 8");
  EXPECT_FALSE(t1.events.empty());
  // The scripted drop contributes exactly one per completed round, so any
  // excess proves the stochastic policy fired; a disrupted round proves it
  // directly (only background loss can eat the scripted packet).
  if (t1.disrupted == 0) EXPECT_GT(t1.stats.drops, t1.rounds.size());
}

TEST_P(PdesStochasticTest, StatsMatchSequentialKernel) {
  const StochOutcome seq = run_stochastic(GetParam(), 77, 0, 0);
  const StochOutcome par = run_stochastic(GetParam(), 77, 2, 4);
  ASSERT_FALSE(seq.rounds.empty());
  EXPECT_EQ(seq.disrupted, par.disrupted);
  ASSERT_EQ(seq.rounds.size(), par.rounds.size());
  for (std::size_t r = 0; r < seq.rounds.size(); ++r) {
    expect_rounds_identical(seq.rounds[r], par.rounds[r], "seq vs parallel");
  }
  expect_stats_identical(seq.stats, par.stats, "seq vs parallel");
  EXPECT_EQ(seq.end_time, par.end_time);
  if (seq.disrupted == 0) EXPECT_GT(seq.stats.drops, seq.rounds.size());
}

INSTANTIATE_TEST_SUITE_P(StochasticLoss, PdesStochasticTest,
                         ::testing::Values(Stoch::kRandomDrop,
                                           Stoch::kGilbertElliott,
                                           Stoch::kBurstPlan));

// --- the fault-injection acceptance scenario under PDES --------------------

struct FaultOutcome {
  fault::CheckerReport report;
  std::size_t disrupted_rounds = 0;
  std::vector<trace::Event> events;
  net::NetworkStats stats;
};

// The partition_recovery_test scenario (N=100 random tree, G=40, partition
// at t=30, heal at t=90, six loss rounds) on the chosen kernel.
FaultOutcome run_partition_heal(std::uint64_t seed, unsigned kernel_threads,
                                std::uint32_t kernel_regions) {
  util::Rng rng(seed);
  net::Topology topo = topo::make_random_tree(100, rng);
  std::vector<net::NodeId> all(100);
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<net::NodeId>(i);
  }
  rng.shuffle(all);
  std::vector<net::NodeId> members(all.begin(), all.begin() + 40);
  std::sort(members.begin(), members.end());
  const net::NodeId source = members[rng.index(members.size())];

  std::vector<net::NodeId> island;
  fault::FaultPlan plan = harness::partition_heal_plan(
      topo, source, /*t_down=*/30.0, /*t_heal=*/90.0, rng, &island);

  SrmConfig cfg;
  cfg.timers = paper_fixed_params(members.size());
  cfg.backoff_factor = 3.0;
  cfg.adaptive.enabled = true;
  harness::SimSession::Options opts{cfg, seed, /*group=*/1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = kernel_regions;
  harness::SimSession session(std::move(topo), members, opts);

  trace::VectorSink capture;
  trace::Tracer tracer;
  tracer.set_sink(&capture);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                  static_cast<std::uint32_t>(trace::Category::kFault));
  session.set_tracer(&tracer);

  fault::FaultInjector injector(session.queue(), session.mutable_topology(),
                                session.network(), std::move(plan),
                                session.rng().fork());
  injector.set_membership_hooks(harness::membership_hooks(session));
  // Injector events are global-queue events: under the parallel kernel they
  // must emit via the control lane to join the deterministic merge.
  injector.set_tracer(session.control_tracer());
  injector.arm();

  harness::RoundSpec spec;
  spec.source_node = source;
  spec.congested = harness::choose_congested_link(
      session.network().routing(), source, members, rng);
  spec.page = PageId{static_cast<SourceId>(source), 0};
  FaultOutcome out;
  for (int r = 0; r < 6; ++r) {
    try {
      harness::run_loss_round(session, spec, static_cast<SeqNo>(r * 2));
    } catch (const std::exception&) {
      ++out.disrupted_rounds;  // the partition ate the round — expected
    }
  }

  fault::CheckerOptions copts;
  copts.deadline = 200.0;
  out.report = fault::RecoveryInvariantChecker(copts).check(
      capture.events(), injector.disruption_windows(), session.queue().now());
  out.events = capture.events();
  out.stats = session.network_stats();
  return out;
}

TEST(PdesPartitionRecoveryTest, InvariantsHoldUnderParallelKernel) {
  const FaultOutcome out = run_partition_heal(7, /*kernel_threads=*/2,
                                              /*kernel_regions=*/4);
  EXPECT_TRUE(out.report.passed) << out.report.summary();
  EXPECT_TRUE(out.report.unrecovered.empty()) << out.report.summary();
  EXPECT_EQ(out.report.storm_violations, 0u);
  EXPECT_GT(out.report.losses, 0u);
  EXPECT_GT(out.report.recovered, 0u);
}

TEST(PdesPartitionRecoveryTest, BitIdenticalAcrossKernelThreadCounts) {
  const FaultOutcome t1 = run_partition_heal(7, 1, 4);
  const FaultOutcome t2 = run_partition_heal(7, 2, 4);
  const FaultOutcome t8 = run_partition_heal(7, 8, 4);
  EXPECT_EQ(t1.disrupted_rounds, t2.disrupted_rounds);
  EXPECT_EQ(t1.disrupted_rounds, t8.disrupted_rounds);
  EXPECT_EQ(t1.report.losses, t2.report.losses);
  EXPECT_EQ(t1.report.losses, t8.report.losses);
  EXPECT_EQ(t1.report.recovered, t2.report.recovered);
  EXPECT_EQ(t1.report.recovered, t8.report.recovered);
  expect_stats_identical(t1.stats, t2.stats, "threads 1 vs 2");
  expect_stats_identical(t1.stats, t8.stats, "threads 1 vs 8");
  expect_traces_identical(t1.events, t2.events, "threads 1 vs 2");
  expect_traces_identical(t1.events, t8.events, "threads 1 vs 8");
  EXPECT_FALSE(t1.events.empty());
}

TEST(PdesPartitionRecoveryTest, InvariantCountsMatchSequentialKernel) {
  const FaultOutcome seq = run_partition_heal(1995, 0, 0);
  const FaultOutcome par = run_partition_heal(1995, 2, 4);
  EXPECT_EQ(seq.report.passed, par.report.passed);
  EXPECT_EQ(seq.report.losses, par.report.losses);
  EXPECT_EQ(seq.report.recovered, par.report.recovered);
  EXPECT_EQ(seq.report.storm_violations, par.report.storm_violations);
  EXPECT_EQ(seq.disrupted_rounds, par.disrupted_rounds);
  expect_stats_identical(seq.stats, par.stats, "seq vs parallel");
}

// --- region-count invariance of the partitioner role -----------------------

TEST(PdesSessionTest, RegionCountIsPureFunctionOfTopology) {
  // The same topology with the same kernel_regions request yields the same
  // region map regardless of thread count (SimSession never feeds the
  // thread count into the partitioner).
  const auto make = [](unsigned threads) {
    util::Rng rng(3);
    net::Topology topo = topo::make_random_tree(150, rng);
    harness::SimSession::Options opts{SrmConfig{}, 3, 1};
    opts.kernel_threads = threads;
    opts.kernel_regions = 5;
    return harness::SimSession(std::move(topo), {10, 20, 30}, opts);
  };
  auto a = make(1);
  auto b = make(8);
  EXPECT_EQ(a.region_map().count, b.region_map().count);
  EXPECT_EQ(a.region_map().of, b.region_map().of);
  EXPECT_EQ(a.region_map().lookahead, b.region_map().lookahead);
}

TEST(PdesSessionTest, SequentialSessionHasTrivialRegionMap) {
  util::Rng rng(3);
  net::Topology topo = topo::make_random_tree(50, rng);
  harness::SimSession session(std::move(topo), {1, 2, 3}, {SrmConfig{}, 3, 1});
  EXPECT_EQ(session.kernel(), nullptr);
  EXPECT_EQ(session.network_count(), 1u);
  EXPECT_EQ(session.region_map().count, 1u);
}

TEST(PdesSessionTest, MembershipChurnWorksUnderParallelKernel) {
  util::Rng rng(11);
  net::Topology topo = topo::make_random_tree(120, rng);
  harness::SimSession::Options opts{SrmConfig{}, 11, 1};
  opts.kernel_threads = 2;
  opts.kernel_regions = 3;
  harness::SimSession session(std::move(topo), {5, 15, 25, 35}, opts);
  session.run();
  session.add_member(60);
  EXPECT_TRUE(session.has_member(60));
  session.run();
  session.remove_member(15, /*graceful=*/true);
  EXPECT_FALSE(session.has_member(15));
  session.run();
  EXPECT_EQ(session.member_count(), 4u);
}

// --- pooled messages on concurrent region workers ---------------------------

struct BurstOutcome {
  net::NetworkStats stats;
  std::uint64_t requests = 0;
  std::uint64_t repairs = 0;
  std::uint64_t recoveries = 0;
  double end_time = 0.0;
};

// A burst of data from four sources with scripted and keyed Gilbert-Elliott
// loss, run until the queue drains, so request and repair traffic crosses
// region boundaries throughout.  kernel_threads == 0 runs the sequential
// kernel.
BurstOutcome run_burst(std::uint64_t seed, unsigned kernel_threads) {
  constexpr std::size_t kNodes = 400;
  constexpr std::size_t kMembers = 80;
  constexpr std::size_t kSources = 4;
  constexpr std::size_t kPackets = 10;
  util::Rng rng(seed);
  net::Topology topo = topo::make_bounded_degree_tree(kNodes, 4);
  std::vector<net::NodeId> all(kNodes);
  std::iota(all.begin(), all.end(), net::NodeId{0});
  rng.shuffle(all);
  std::vector<net::NodeId> members(all.begin(), all.begin() + kMembers);
  std::sort(members.begin(), members.end());

  SrmConfig cfg;
  cfg.timers = paper_fixed_params(kMembers);
  cfg.backoff_factor = 3.0;
  harness::SimSession::Options opts{cfg, seed, /*group=*/1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = kernel_threads > 0 ? 8 : 0;
  harness::SimSession session(std::move(topo), members, opts);

  // Each source loses every third data packet on one congested link; the
  // keyed chain drops on every hop, requests and repairs included.
  auto drops = std::make_shared<net::CompositeDrop>();
  for (std::size_t s = 0; s < kSources; ++s) {
    const harness::DirectedLink link = harness::choose_congested_link(
        session.network().routing(), members[s], members, rng);
    const auto id = static_cast<SourceId>(members[s]);
    drops->add(std::make_shared<net::ScriptedLinkDrop>(
        link.from, link.to,
        [id](const net::Packet& p) {
          const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
          return d != nullptr && d->name().page.creator == id &&
                 d->name().seq % 3 == 0;
        },
        /*max_drops=*/std::size_t{1} << 30));
  }
  session.network().set_drop_policy(drops);
  net::GilbertElliottDrop::Params ge;
  ge.p_good_bad = 0.02;
  ge.p_bad_good = 0.5;
  session.network().set_fault_drop_policy(
      std::make_shared<net::GilbertElliottDrop>(ge, seed ^ 0x6E5EEDull));
  for (std::size_t s = 0; s < kSources; ++s) {
    SrmAgent& agent = session.agent_at(members[s]);
    for (std::size_t i = 0; i < kPackets; ++i) {
      const double when = 1.0 + 0.04 * static_cast<double>(s) +
                          0.25 * static_cast<double>(i);
      session.queue().schedule_at(when, [&agent, s] {
        agent.send_data(PageId{agent.id(), 0}, Payload{std::uint8_t(s)});
      });
    }
  }
  session.run();

  BurstOutcome out;
  out.stats = session.network_stats();
  for (std::size_t i = 0; i < session.member_count(); ++i) {
    const AgentMetrics& m = session.agent(i).metrics();
    out.requests += m.requests_sent;
    out.repairs += m.repairs_sent;
    out.recoveries += m.recoveries;
  }
  out.end_time = session.now();
  return out;
}

// A pooled request or repair is often released by another region's worker
// (the one firing the last delivery of a remote chain) while the sender's
// worker acquires from the same freelist.  Under ThreadSanitizer an
// unguarded net::MessagePool freelist is reported here as a data race.
// Several worlds, because whether two workers meet at a freelist depends on
// wall-clock scheduling.
TEST(PdesPoolTest, CrossRegionRequestRepairTrafficOnFourWorkers) {
  for (std::uint64_t seed : {12, 13, 14}) {
    SCOPED_TRACE(seed);
    const BurstOutcome seq = run_burst(seed, 0);
    const BurstOutcome par = run_burst(seed, 4);
    EXPECT_GT(seq.requests, 0u);
    EXPECT_GT(seq.repairs, 0u);
    EXPECT_GT(seq.recoveries, 0u);
    expect_stats_identical(seq.stats, par.stats, "sequential vs 4 workers");
    EXPECT_EQ(seq.requests, par.requests);
    EXPECT_EQ(seq.repairs, par.repairs);
    EXPECT_EQ(seq.recoveries, par.recoveries);
    EXPECT_EQ(seq.end_time, par.end_time);
  }
}

}  // namespace
}  // namespace srm
