// ReplicationRunner: pool mechanics, exception propagation, and the
// determinism contract the parallel figure sweeps rely on — per-seed
// statistics identical for every thread count.
#include "harness/replication.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "srm/config.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace srm::harness {
namespace {

TEST(ReplicationRunnerTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_EQ(ReplicationRunner(0).threads(), default_thread_count());
  EXPECT_EQ(ReplicationRunner(3).threads(), 3u);
}

TEST(ReplicationRunnerTest, MapReturnsResultsInJobOrder) {
  const ReplicationRunner runner(4);
  const auto results = runner.map<int>(
      100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(ReplicationRunnerTest, EveryJobRunsExactlyOnce) {
  const ReplicationRunner runner(8);
  std::atomic<int> calls{0};
  const auto results = runner.map<std::size_t>(257, [&](std::size_t i) {
    calls.fetch_add(1);
    return i;
  });
  EXPECT_EQ(calls.load(), 257);
  std::size_t sum = std::accumulate(results.begin(), results.end(),
                                    std::size_t{0});
  EXPECT_EQ(sum, 257u * 256u / 2u);
}

TEST(ReplicationRunnerTest, EmptyAndSingleBatches) {
  const ReplicationRunner runner(4);
  EXPECT_TRUE(runner.map<int>(0, [](std::size_t) { return 1; }).empty());
  const auto one = runner.map<int>(1, [](std::size_t) { return 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7);
}

TEST(ReplicationRunnerTest, PropagatesJobExceptions) {
  for (unsigned threads : {1u, 4u}) {
    const ReplicationRunner runner(threads);
    EXPECT_THROW(runner.map<int>(16,
                                 [](std::size_t i) -> int {
                                   if (i == 9) {
                                     throw std::runtime_error("replication 9");
                                   }
                                   return 0;
                                 }),
                 std::runtime_error);
  }
}

// One fig3-style batch: specs (all RNG draws) built serially, sessions run
// per job.  Mirrors bench/common.h's run_trials without depending on bench
// headers.
std::vector<RoundResult> run_fig_batch(std::uint64_t seed, int trials,
                                       unsigned threads) {
  struct Spec {
    net::Topology topo;
    std::vector<net::NodeId> members;
    net::NodeId source;
    DirectedLink congested{0, 0};
    std::uint64_t seed = 1;
  };
  util::Rng rng(seed);
  std::vector<Spec> specs;
  for (int t = 0; t < trials; ++t) {
    Spec spec;
    const std::size_t n = 24;
    spec.topo = topo::make_random_tree(n, rng);
    spec.members.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      spec.members[i] = static_cast<net::NodeId>(i);
    }
    spec.source = spec.members[rng.index(n)];
    net::Routing routing(spec.topo);
    spec.congested =
        choose_congested_link(routing, spec.source, spec.members, rng);
    spec.seed = rng.next_u64();
    specs.push_back(std::move(spec));
  }
  const ReplicationRunner runner(threads);
  return runner.map<RoundResult>(specs.size(), [&](std::size_t i) {
    Spec& spec = specs[i];
    SrmConfig cfg;
    cfg.timers = paper_fixed_params(spec.members.size());
    cfg.backoff_factor = 3.0;
    SimSession session(std::move(spec.topo), spec.members,
                       {cfg, spec.seed, /*group=*/1});
    RoundSpec round;
    round.source_node = spec.source;
    round.congested = spec.congested;
    round.page = PageId{static_cast<SourceId>(spec.source), 0};
    return run_loss_round(session, round, /*seq=*/0);
  });
}

TEST(ReplicationRunnerTest, ThreadCountDoesNotChangeStatistics) {
  const auto serial = run_fig_batch(/*seed=*/77, /*trials=*/12, /*threads=*/1);
  for (unsigned threads : {2u, 4u, 7u}) {
    const auto parallel = run_fig_batch(77, 12, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].requests, serial[i].requests)
          << "trial " << i << " threads=" << threads;
      EXPECT_EQ(parallel[i].repairs, serial[i].repairs)
          << "trial " << i << " threads=" << threads;
      EXPECT_EQ(parallel[i].affected, serial[i].affected);
      EXPECT_EQ(parallel[i].recovered, serial[i].recovered);
      // Bit-for-bit, not approximately: the merge contract is exact.
      EXPECT_EQ(parallel[i].last_member_delay_rtt,
                serial[i].last_member_delay_rtt)
          << "trial " << i << " threads=" << threads;
      EXPECT_EQ(parallel[i].max_delay_seconds, serial[i].max_delay_seconds);
      EXPECT_EQ(parallel[i].link_transmissions, serial[i].link_transmissions);
      EXPECT_EQ(parallel[i].request_times, serial[i].request_times);
      EXPECT_EQ(parallel[i].repair_times, serial[i].repair_times);
    }
  }
}

TEST(PdesThreadBudgetTest, KernelCappedAtHardware) {
  EXPECT_EQ(cap_kernel_threads(32, /*hardware=*/4), 4u);
}

TEST(PdesThreadBudgetTest, FitsWithinBudgetUnchanged) {
  EXPECT_EQ(cap_kernel_threads(3, /*hardware=*/8), 3u);
  EXPECT_EQ(cap_kernel_threads(8, /*hardware=*/8), 8u);
  EXPECT_EQ(cap_kernel_threads(0, /*hardware=*/8), 0u);  // sequential kernel
}

TEST(PdesThreadBudgetTest, SingleCoreDegeneratesToSerial) {
  EXPECT_EQ(cap_kernel_threads(2, /*hardware=*/1), 1u);
}

TEST(PdesThreadBudgetTest, DefaultHardwareIsRealConcurrency) {
  EXPECT_EQ(cap_kernel_threads(1u << 20), default_thread_count());
}

}  // namespace
}  // namespace srm::harness
