// Heavy-traffic workload suite: the four seeded workload generators
// (src/workload/workload.h, ARCHITECTURE.md §13) run on the simulator
// backend and report what the recovery machinery did under each traffic
// shape — flash-crowd page-state recovery, conference talk-spurts with
// receiver-side loss, diurnal membership churn, and correlated repair
// storms.
//
// Every recorded metric is virtual-time (deterministic for a given seed and
// member count), so BENCH_workload.json is machine-independent and
// scripts/check_bench.py gates the ``*_us`` recovery percentiles exactly:
// any drift is a behavioral change in the protocol, not measurement noise.
// The verdicts of the checker and of the six Sec. III-B rules double as the
// pass/fail exit code.
#include <chrono>
#include <iostream>

#include "util/flags.h"
#include "util/perf_json.h"
#include "util/table.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(42);
  const auto members =
      static_cast<std::size_t>(flags.get_int("members", 48));
  const std::string json_path =
      flags.get_string("bench-json", "BENCH_workload.json");
  util::PerfJson json(json_path, "workload_suite");
  const auto start = std::chrono::steady_clock::now();

  util::print_banner(std::cout,
                     "Workload suite: heavy-traffic recovery invariants");
  std::cout << "seed=" << seed << "\nstar topology, peak " << members
            << " members, sim backend; every metric is virtual-time\n\n";

  util::Table table({"workload", "sends", "joins", "departs", "drops",
                     "losses", "requests", "repairs", "recovered",
                     "p50 (s)", "p99 (s)", "max (s)", "invariants"});
  bool all_passed = true;
  for (const std::string& name : workload::workload_names()) {
    const workload::WorkloadSpec spec =
        workload::make_workload(name, members, seed);
    const workload::WorkloadResult r = workload::run_workload_sim(spec);
    all_passed = all_passed && r.passed;
    table.add_row({name, util::Table::num(r.data_sent),
                   util::Table::num(r.joins), util::Table::num(r.departures),
                   util::Table::num(r.scripted_drops),
                   util::Table::num(r.losses), util::Table::num(r.requests),
                   util::Table::num(r.repairs),
                   util::Table::num(r.recoveries),
                   util::Table::num(r.recovery_p50, 2),
                   util::Table::num(r.recovery_p99, 2),
                   util::Table::num(r.recovery_max, 2),
                   r.passed ? "PASS" : "FAIL"});

    // check_bench.py gates the *_us keys (lower is better); the raw counters
    // ride along as informational context for diffing behavior changes.
    std::string prefix = name;
    for (char& c : prefix) {
      if (c == '-') c = '_';
    }
    prefix += "_";
    json.set(prefix + "recovery_p50_us", r.recovery_p50 * 1e6);
    json.set(prefix + "recovery_p99_us", r.recovery_p99 * 1e6);
    json.set(prefix + "recovery_max_us", r.recovery_max * 1e6);
    json.set(prefix + "losses", static_cast<double>(r.losses));
    json.set(prefix + "requests", static_cast<double>(r.requests));
    json.set(prefix + "repairs", static_cast<double>(r.repairs));
    json.set(prefix + "scripted_drops",
             static_cast<double>(r.scripted_drops));
    if (!r.checker.passed) {
      std::cout << name << " checker report:\n" << r.checker.summary()
                << "\n";
    }
    if (!r.conformance.clean()) {
      std::cout << name << " conformance: " << r.conformance.report() << "\n";
    }
  }
  table.print(std::cout);
  std::cout << "\nEvery loss at a surviving member must recover within the\n"
               "workload's deadline with no repair storms; latencies are\n"
               "detection -> recovery in virtual seconds.\n";

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  if (!json_path.empty()) {
    json.set("members", static_cast<double>(members));
    json.set("wall_seconds", wall.count());
    json.save();
    std::cout << "\n[perf] " << json_path << " updated (workload_suite)\n";
  }
  return all_passed ? 0 : 1;
}
