// Fault-churn benchmark: loss recovery under network dynamics (Sec. III-D).
//
// Each trial builds a fresh random tree (N=100 nodes, G=40 members), arms a
// fault plan — one partition/heal round trip plus crash/rejoin membership
// churn at a scripted rate — and runs loss-recovery rounds through the
// disruption.  The RecoveryInvariantChecker then folds the captured trace
// and reports per-loss recovery latencies; the sweep prints their
// percentiles at three churn rates and records them (in virtual-time
// microseconds, machine-independent) into BENCH_fault.json so
// scripts/check_bench.py can gate regressions.
//
// Paper shape to match: recovery keeps succeeding across the partition
// (zero unrecovered losses at surviving members) and latency degrades
// gracefully — not catastrophically — as churn increases.
#include <cstddef>

#include "common.h"
#include "harness/fault_scenarios.h"
#include "harness/run.h"

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(1995);
  const int trials = static_cast<int>(flags.get_int("trials", 6));
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 100));
  const auto group = static_cast<std::size_t>(flags.get_int("members", 40));
  const int rounds = static_cast<int>(flags.get_int("rounds", 6));
  const harness::ReplicationRunner runner(bench::flag_threads(flags));
  const std::string json_path =
      flags.get_string("bench-json", "BENCH_fault.json");
  util::PerfJson json(json_path, "fault_churn");
  const auto start = std::chrono::steady_clock::now();

  bench::print_header(
      "Fault churn: recovery latency under partition + membership churn",
      seed,
      "random tree N=" + std::to_string(nodes) + ", G=" +
          std::to_string(group) +
          "; one partition/heal + crash/rejoin churn; adaptive timers; " +
          std::to_string(trials) + " trials per rate; threads=" +
          std::to_string(runner.threads()));

  util::Rng rng(seed);
  util::Table table({"churn cycles", "losses", "unrecovered", "exempt",
                     "latency p50 (s)", "p90 (s)", "p99 (s)", "invariants"});
  bool all_passed = true;
  std::size_t replications = 0;

  for (const std::size_t cycles : {2u, 5u, 10u}) {
    std::vector<harness::Scenario> specs;
    specs.reserve(static_cast<std::size_t>(trials));
    for (int t = 0; t < trials; ++t) {
      harness::Scenario spec;
      spec.topo = topo::make_random_tree(nodes, rng);
      std::vector<net::NodeId> all(nodes);
      for (std::size_t i = 0; i < nodes; ++i) {
        all[i] = static_cast<net::NodeId>(i);
      }
      rng.shuffle(all);
      spec.members.assign(all.begin(), all.begin() + static_cast<long>(group));
      std::sort(spec.members.begin(), spec.members.end());
      const net::NodeId source = spec.members[rng.index(group)];
      net::Routing routing(spec.topo);
      spec.round.source_node = source;
      spec.round.congested =
          harness::choose_congested_link(routing, source, spec.members, rng);
      spec.round.page = PageId{static_cast<SourceId>(source), 0};
      spec.srm = bench::paper_sim_config(paper_fixed_params(group));
      spec.srm.adaptive.enabled = true;
      spec.rounds = rounds;
      // One partition at t=30 healed at t=90, plus `cycles` crash/rejoin
      // pairs spread over the run (60 s downtime each).
      spec.faults = harness::partition_heal_plan(spec.topo, source,
                                                 /*t_down=*/30.0,
                                                 /*t_heal=*/90.0, rng);
      spec.faults.merge(harness::churn_plan(spec.members, source, cycles,
                                            /*t_begin=*/20.0,
                                            /*t_end=*/400.0,
                                            /*downtime=*/60.0,
                                            /*crash=*/true, rng));
      spec.fault_deadline = 200.0;
      spec.seed = rng.next_u64();
      specs.push_back(std::move(spec));
    }
    replications += specs.size();
    // The faults can make a round unrunnable (source crashed, congested
    // link down, scripted drop swallowed by the partition); that is the
    // scenario, and the recovery checker judges what did happen.
    const auto results = runner.map<harness::ScenarioResult>(
        specs.size(),
        [&specs](std::size_t i) { return harness::run(specs[i], 0); });

    util::Samples latency;
    std::size_t losses = 0;
    std::size_t unrecovered = 0;
    std::size_t exempt = 0;
    bool passed = true;
    for (const harness::ScenarioResult& r : results) {
      const fault::CheckerReport& report = *r.recovery;
      for (double s : report.recovery_latencies) latency.add(s);
      losses += report.losses;
      unrecovered += report.unrecovered.size();
      exempt += report.exempt_departed + report.exempt_unhealed +
                report.pending_past_trace;
      passed = passed && report.passed;
    }
    all_passed = all_passed && passed;

    const double p50 = latency.empty() ? 0.0 : latency.quantile(0.5);
    const double p90 = latency.empty() ? 0.0 : latency.quantile(0.9);
    const double p99 = latency.empty() ? 0.0 : latency.quantile(0.99);
    table.add_row({util::Table::num(cycles), util::Table::num(losses),
                   util::Table::num(unrecovered), util::Table::num(exempt),
                   util::Table::num(p50, 2), util::Table::num(p90, 2),
                   util::Table::num(p99, 2),
                   passed ? "PASS" : "FAIL"});

    // Virtual-time metrics (identical on every machine for a given seed);
    // check_bench.py treats *_us as lower-is-better.
    const std::string prefix = "churn" + std::to_string(cycles) + "_";
    json.set(prefix + "recovery_p50_us", p50 * 1e6);
    json.set(prefix + "recovery_p90_us", p90 * 1e6);
    json.set(prefix + "recovery_p99_us", p99 * 1e6);
    json.set(prefix + "losses", static_cast<double>(losses));
    json.set(prefix + "unrecovered", static_cast<double>(unrecovered));
  }
  table.print(std::cout);
  std::cout << "\nPaper check: zero unrecovered losses at surviving members\n"
               "across partition + churn; latency degrades gracefully with\n"
               "churn rate (Sec. III-D robustness).\n";

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  if (!json_path.empty()) {
    json.set("threads", static_cast<double>(runner.threads()));
    json.set("replications", static_cast<double>(replications));
    json.set("rounds", static_cast<double>(rounds));
    json.set("wall_seconds", wall.count());
    json.save();
    std::cout << "[perf] " << json_path << " updated (fault_churn)\n";
  }
  return all_passed ? 0 : 1;
}
