// srmsim — a command-line scenario driver for the SRM simulator, in the
// spirit of the ns scripts the authors used.  Builds a topology, places a
// session, injects losses, runs loss-recovery rounds, and reports the
// per-round statistics plus a conformance-check summary.
//
// Examples:
//   ./examples/srmsim --topo=btree --nodes=1000 --degree=4 --members=50
//                      --rounds=40 --adaptive=true --seed=7   (one line)
//   ./examples/srmsim --topo=random-tree --nodes=200 --members=200
//   ./examples/srmsim --topo=transit-stub --members=60 --rounds=20
//   ./examples/srmsim --topo=star --nodes=100 --c1=0 --c2=50
//
// Run `srmsim --help` for the flag table (kept in sync with README.md by
// scripts/check_docs.py).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <utility>

#include "harness/replication.h"
#include "harness/run.h"
#include "harness/scenario.h"
#include "srm/fec/block_code.h"
#include "topo/builders.h"
#include "trace/timeline.h"
#include "trace/trace.h"
#include "transport/udp_transport.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/workload.h"

namespace {

using namespace srm;

// The authoritative flag table; README.md's srmsim section mirrors it and
// scripts/check_docs.py fails CI if the two drift apart.
constexpr const char* kUsage = R"(srmsim: SRM loss-recovery scenario driver

Flags (defaults in brackets):
  --topo          btree | random-tree | random-graph | chain | star | ring |
                  dumbbell | transit-stub | lans            [btree]
  --nodes         topology size                             [1000]
  --degree        interior degree for btree                 [4]
  --edges         edge count for random-graph               [3*nodes/2]
  --members       session size (0 = all nodes)              [50]
  --rounds        loss-recovery rounds                      [10]
  --adaptive      adaptive timer adjustment                 [false]
  --c1 --c2       request timer parameters                  [2/2]
  --d1 --d2       repair timer parameters                   [log10 G]
  --backoff       request-timer backoff multiplier          [3]
  --seed          RNG seed                                  [1]
  --verbose       print every request/repair                [false]
  --trace         write a structured trace to this file     [off]
  --trace-mask    categories: sim,net,srm,fault | all | none  [srm]
  --trace-format  jsonl | binary                            [jsonl]
  --fec           generation-framed coded repair: XOR/GF(256)
                  parity ADUs with a loss-adaptive budget
                  (ARCHITECTURE.md §11)                     [false]
  --fec-max-k     parity-budget ceiling per generation (1-4) [4]
  --hierarchy     hierarchical session messages: local areas
                  with TTL-scoped reports and elected
                  representatives (ARCHITECTURE.md §12);
                  a warm-up runs before the loss rounds     [false]
  --areas         local-area count for --hierarchy
                  (0 = about sqrt(members))                 [0]
  --local-ttl     TTL of --hierarchy local reports          [4]
  --faults        fault-plan file: link churn, partitions,
                  membership dynamics, bursty loss
                  (format: ARCHITECTURE.md)                 [off]
  --fault-deadline  recovery deadline in seconds for the
                  fault invariant checker                   [100]
  --kernel-threads  parallel (PDES) kernel workers; 0 runs
                  the sequential kernel (capped at the
                  hardware concurrency)                     [0]
  --kernel-regions  region count for the parallel kernel
                  (0 = derive from the node count; keep
                  fixed when comparing thread counts)       [0]
  --pdes-verify   run the scenario on the sequential kernel
                  and on the parallel kernel at 1 and at
                  --kernel-threads workers, with the plain
                  run's source, congested link, hierarchy
                  warm-up, coded repair and fault plan; the
                  parallel traces must be bit-identical and
                  every statistic must match the sequential
                  kernel's; exits non-zero on any mismatch  [false]
  --workload      run a heavy-traffic workload instead of
                  the loss rounds: flash-crowd | conference
                  | diurnal | repair-storm, judged by the
                  recovery-invariant checker
                  (ARCHITECTURE.md §13)                     [off]
  --transport     backend for --workload: sim (virtual
                  time) | udp (real multicast on loopback,
                  wall time); udp requires --workload       [sim]
  --help          print this table and exit
)";

struct BuiltTopology {
  net::Topology topo;
  std::vector<net::NodeId> candidates;  // nodes members may be placed on
};

BuiltTopology build_topology(const std::string& kind, std::size_t nodes,
                             int degree, std::size_t edges, util::Rng& rng) {
  if (kind == "star") {
    auto s = topo::make_star(nodes);
    return {std::move(s.topo), std::move(s.leaves)};
  }
  if (kind == "dumbbell") {
    auto d = topo::make_dumbbell(nodes / 2);
    std::vector<net::NodeId> c = d.left_hosts;
    c.insert(c.end(), d.right_hosts.begin(), d.right_hosts.end());
    return {std::move(d.topo), std::move(c)};
  }
  if (kind == "transit-stub") {
    auto ts = topo::make_transit_stub(4, 3, std::max<std::size_t>(4, nodes / 48),
                                      rng);
    return {std::move(ts.topo), std::move(ts.stub_nodes)};
  }
  if (kind == "lans") {
    auto tl = topo::make_tree_of_lans(std::max<std::size_t>(2, nodes / 6), 3, 5);
    return {std::move(tl.topo), std::move(tl.workstations)};
  }
  // The rest place members on any node.
  BuiltTopology built;
  if (kind == "btree") {
    built.topo = topo::make_bounded_degree_tree(nodes, degree);
  } else if (kind == "random-tree") {
    built.topo = topo::make_random_tree(nodes, rng);
  } else if (kind == "random-graph") {
    built.topo = topo::make_random_graph(nodes, edges, rng);
  } else if (kind == "chain") {
    built.topo = topo::make_chain(nodes);
  } else if (kind == "ring") {
    built.topo = topo::make_ring(nodes);
  } else {
    throw std::invalid_argument("unknown --topo: " + kind);
  }
  built.candidates.resize(built.topo.node_count());
  std::iota(built.candidates.begin(), built.candidates.end(), net::NodeId{0});
  return built;
}

// A timer parameter flag: the event queue refuses negative or non-finite
// delays, so a value outside [0, inf) is bad input, not a scenario.
double timer_flag(const util::Flags& flags, const std::string& name,
                  double default_value) {
  const double value = flags.get_double(name, default_value);
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument("--" + name +
                                " must be finite and >= 0, got " +
                                flags.get_string(name, ""));
  }
  return value;
}

// Everything srmsim does; bad flag values surface as
// std::invalid_argument, which main() reports.
int run(const util::Flags& flags) {
  if (flags.get_bool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  const std::string kind = flags.get_string("topo", "btree");
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 1000));
  const int degree = static_cast<int>(flags.get_int("degree", 4));
  const auto edges = static_cast<std::size_t>(
      flags.get_int("edges", static_cast<std::int64_t>(nodes) * 3 / 2));
  auto member_count = static_cast<std::size_t>(flags.get_int("members", 50));
  harness::Scenario scenario;
  scenario.rounds = static_cast<int>(flags.get_int("rounds", 10));
  const std::uint64_t seed = scenario.seed = flags.get_seed(1);
  scenario.log_sends = flags.get_bool("verbose", false);
  const std::string trace_path = flags.get_string("trace", "");
  const std::uint32_t trace_mask =
      trace::parse_mask(flags.get_string("trace-mask", "srm"));
  const std::string trace_format = flags.get_string("trace-format", "jsonl");
  if (trace_format != "jsonl" && trace_format != "binary") {
    std::cerr << "srmsim: unknown --trace-format: " << trace_format << "\n";
    return 1;
  }
  // Workload mode: a scripted heavy-traffic scenario (ARCHITECTURE.md §13)
  // replaces the loss rounds entirely.  --members scales the peak
  // membership; --transport selects the backend the identical spec runs on.
  const std::string transport_kind = flags.get_string("transport", "sim");
  const std::string workload_name = flags.get_string("workload", "");
  if (transport_kind != "sim" && transport_kind != "udp") {
    std::cerr << "srmsim: unknown --transport: " << transport_kind << "\n";
    return 1;
  }
  if (workload_name.empty() && transport_kind == "udp") {
    std::cerr << "srmsim: --transport=udp requires --workload (the figure "
                 "rounds are simulator-only)\n";
    return 1;
  }
  if (!workload_name.empty()) {
    // An unknown name throws std::invalid_argument, which main() reports.
    const workload::WorkloadSpec wspec = workload::make_workload(
        workload_name, member_count == 0 ? 48 : member_count, seed);
    const bool udp = transport_kind == "udp";
    if (udp && !transport::UdpTransport::available()) {
      std::cout << "srmsim: loopback multicast unavailable; skipping "
                   "--transport=udp workload\n";
      return 0;
    }
    std::cout << "workload '" << wspec.name << "': " << wspec.peak_members
              << " peak members (" << wspec.initial_members
              << " initial), seed " << seed << ", " << transport_kind
              << " backend, " << wspec.actions.size()
              << " scripted actions over " << wspec.duration << "s\n\n";
    const workload::WorkloadResult r = udp
                                           ? workload::run_workload_udp(wspec)
                                           : workload::run_workload_sim(wspec);
    util::Table wtable({"sends", "joins", "departs", "drops", "losses",
                        "requests", "repairs", "recovered", "p50 (s)",
                        "p99 (s)", "max (s)"});
    wtable.add_row(
        {util::Table::num(r.data_sent), util::Table::num(r.joins),
         util::Table::num(r.departures), util::Table::num(r.scripted_drops),
         util::Table::num(r.losses), util::Table::num(r.requests),
         util::Table::num(r.repairs), util::Table::num(r.recoveries),
         util::Table::num(r.recovery_p50, 2),
         util::Table::num(r.recovery_p99, 2),
         util::Table::num(r.recovery_max, 2)});
    wtable.print(std::cout);
    std::cout << "\nfingerprint 0x" << std::hex << r.fingerprint << std::dec
              << "\n"
              << r.checker.summary();
    return r.passed ? 0 : 1;
  }

  const std::string faults_path = flags.get_string("faults", "");
  scenario.fault_deadline = flags.get_double("fault-deadline", 100.0);
  const long long kernel_threads_flag = flags.get_int("kernel-threads", 0);
  // srmsim runs one session, so the whole hardware budget belongs to the
  // kernel side (replication = 1); plan_thread_budget caps oversubscription.
  const unsigned kernel_threads =
      harness::plan_thread_budget(
          /*requested_replication=*/1,
          kernel_threads_flag > 0 ? static_cast<unsigned>(kernel_threads_flag)
                                  : 0u)
          .kernel_threads;
  scenario.kernel_regions =
      static_cast<std::uint32_t>(flags.get_int("kernel-regions", 0));
  const bool pdes_verify = flags.get_bool("pdes-verify", false);
  SrmConfig& cfg = scenario.srm;
  const bool fec = scenario.coded_repair = flags.get_bool("fec", false);
  cfg.fec.max_k = static_cast<std::size_t>(flags.get_int("fec-max-k", 4));
  if (fec && (cfg.fec.max_k < 1 || cfg.fec.max_k > fec::kMaxParity)) {
    std::cerr << "srmsim: --fec-max-k must be in [1, 4]\n";
    return 1;
  }
  cfg.hierarchy.enabled = flags.get_bool("hierarchy", false);
  cfg.hierarchy.areas = static_cast<std::uint32_t>(flags.get_int("areas", 0));
  cfg.hierarchy.local_ttl = static_cast<int>(flags.get_int("local-ttl", 4));
  if (cfg.hierarchy.local_ttl < 1) {
    std::cerr << "srmsim: --local-ttl must be >= 1\n";
    return 1;
  }

  if (!faults_path.empty()) {
    std::ifstream in(faults_path);
    if (!in) {
      std::cerr << "srmsim: cannot open --faults file: " << faults_path
                << "\n";
      return 1;
    }
    try {
      scenario.faults = fault::FaultPlan::parse(in);
    } catch (const std::exception& e) {
      std::cerr << "srmsim: " << faults_path << ": " << e.what() << "\n";
      return 1;
    }
  }
  // Bad topology flags (an unknown --topo, a degree or size its builder
  // rejects, or a world whose source reaches no other member) are reported
  // like every other bad input.
  util::Rng rng(seed);
  try {
    BuiltTopology built = build_topology(kind, nodes, degree, edges, rng);
    if (member_count == 0 || member_count > built.candidates.size()) {
      member_count = built.candidates.size();
    }
    rng.shuffle(built.candidates);
    scenario.members.assign(
        built.candidates.begin(),
        built.candidates.begin() + static_cast<long>(member_count));
    std::sort(scenario.members.begin(), scenario.members.end());
    scenario.topo = std::move(built.topo);
    // The loss rounds' source member and congested link.
    harness::RoundSpec& round = scenario.round;
    round.source_node = scenario.members[rng.index(member_count)];
    net::Routing routing(scenario.topo);
    round.congested = harness::choose_congested_link(
        routing, round.source_node, scenario.members, rng);
    round.page = PageId{static_cast<SourceId>(round.source_node), 0};
  } catch (const std::exception& e) {
    std::cerr << "srmsim: " << e.what() << "\n";
    return 1;
  }

  const double lg = std::log10(static_cast<double>(member_count));
  cfg.timers.c1 = timer_flag(flags, "c1", 2.0);
  cfg.timers.c2 = timer_flag(flags, "c2", 2.0);
  cfg.timers.d1 = timer_flag(flags, "d1", lg);
  cfg.timers.d2 = timer_flag(flags, "d2", lg);
  cfg.backoff_factor = timer_flag(flags, "backoff", 3.0);
  cfg.adaptive.enabled = flags.get_bool("adaptive", false);

  std::cout << "srmsim: " << kind << " with " << scenario.topo.node_count()
            << " nodes, " << member_count << " members, seed " << seed
            << (cfg.adaptive.enabled ? ", adaptive timers" : "")
            << (cfg.hierarchy.enabled ? ", hierarchical sessions" : "")
            << (fec ? ", coded repair (max K " +
                          std::to_string(cfg.fec.max_k) + ")"
                    : "")
            << "\n";

  if (pdes_verify) {
    // The same scenario on the sequential kernel and on the parallel kernel
    // at 1 and at --kernel-threads workers.  The parallel kernel's claim is
    // event-order equivalence, so every comparison is exact, down to the
    // double-valued delays.  The two parallel traces must be bit-identical;
    // the sequential kernel orders equal-time events its own way.
    const unsigned kt = kernel_threads > 0 ? kernel_threads : 1;
    const harness::ScenarioResult seq = harness::run(scenario, 0);
    const harness::ScenarioResult p1 = harness::run(scenario, 1);
    const harness::ScenarioResult pk = harness::run(scenario, kt);
    std::vector<std::string> diffs;
    const auto [at1, atk] = std::mismatch(p1.capture.begin(), p1.capture.end(),
                                          pk.capture.begin(), pk.capture.end());
    if (at1 != p1.capture.end() || atk != pk.capture.end()) {
      diffs.push_back("parallel traces diverge at event " +
                      std::to_string(at1 - p1.capture.begin()) + " of " +
                      std::to_string(p1.capture.size()) + " vs " +
                      std::to_string(pk.capture.size()));
    }
    for (const auto& [threads, par] : {std::pair{1u, &p1}, {kt, &pk}}) {
      for (const std::string& d : harness::diff(seq, *par)) {
        diffs.push_back("sequential vs " + std::to_string(threads) +
                        "-thread " + d);
      }
    }
    if (!diffs.empty()) {
      std::cout << "pdes-verify: MISMATCH (" << diffs.size()
                << " differences)\n";
      for (const std::string& d : diffs) std::cout << "  " << d << "\n";
      return 1;
    }
    if (scenario.faults.empty()) {
      std::cout << "pdes-verify: OK (" << scenario.rounds
                << " rounds bit-identical, sequential vs " << kt
                << "-thread parallel kernel)\n";
    } else {
      std::cout << "pdes-verify: OK (fault plan, " << p1.capture.size()
                << "-event trace bit-identical at 1 vs " << kt
                << " threads; stats and recovery invariants match the "
                   "sequential kernel)\n";
    }
    return 0;
  }

  // Structured tracing: the --trace file receives exactly the categories
  // --trace-mask names, beside the run's own srm and fault capture.
  std::ofstream trace_file;
  std::unique_ptr<trace::Sink> trace_sink;
  if (!trace_path.empty()) {
    const auto mode = trace_format == "binary"
                          ? std::ios::out | std::ios::binary
                          : std::ios::out;
    trace_file.open(trace_path, mode);
    if (!trace_file) {
      std::cerr << "srmsim: cannot open --trace file: " << trace_path << "\n";
      return 1;
    }
    if (trace_format == "binary") {
      trace_sink = std::make_unique<trace::BinarySink>(trace_file);
    } else {
      trace_sink = std::make_unique<trace::JsonlSink>(trace_file);
    }
    scenario.trace_sink = trace_sink.get();
    scenario.trace_mask = trace_mask;
  }
  const harness::ScenarioResult result = harness::run(scenario, kernel_threads);

  if (kernel_threads > 0) {
    std::cout << "parallel kernel: " << result.kernel_regions
              << " regions, lookahead " << result.lookahead << ", "
              << kernel_threads << " worker thread"
              << (kernel_threads == 1 ? "" : "s") << "\n";
  }
  if (!trace_path.empty()) {
    std::cout << "tracing " << trace::format_mask(trace_mask) << " ("
              << trace_format << ") to " << trace_path << "\n";
  }
  if (result.hierarchy) {
    const harness::HierarchyState& h = *result.hierarchy;
    std::cout << "hierarchy: " << h.areas << " areas, " << h.representatives
              << " representatives, local TTL " << cfg.hierarchy.local_ttl
              << "\n  warm-up " << h.warm_up << "s: " << h.local_reports
              << " local + " << h.global_reports << " global reports, "
              << h.wheel_buckets << " timer buckets for " << h.wheel_items
              << " pending reports\n  node " << scenario.members.front()
              << " estimates group size " << h.group_size_estimate << "\n";
  }
  if (result.recovery) {
    std::cout << "fault plan: " << faults_path << " ("
              << scenario.faults.size() << " events, deadline "
              << scenario.fault_deadline << "s)\n";
  }
  if (scenario.log_sends && kernel_threads > 0) {
    std::cout << "(--verbose is sequential-kernel only; ignoring)\n";
  }
  const harness::RoundSpec& spec = scenario.round;
  std::cout << "source node " << spec.source_node << ", congested link ("
            << spec.congested.from << " -> " << spec.congested.to << ")\n\n";

  util::Table table({"round", "affected", "requests", "repairs",
                     "last delay (s)", "last delay/RTT"});
  std::size_t total_requests = 0;
  std::size_t total_repairs = 0;
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const harness::RoundOutcome& round = result.rounds[r];
    std::cout << round.sends;
    // With a fault plan a round can be unrunnable; that is the scenario
    // working as intended, and the recovery checker below still judges
    // every loss that did happen.
    if (!round.disruption.empty()) {
      std::cout << "round " << r + 1 << " disrupted by faults ("
                << round.disruption << ")\n";
      continue;
    }
    const harness::RoundResult& res = round.result;
    total_requests += res.requests;
    total_repairs += res.repairs;
    table.add_row({util::Table::num(r + 1), util::Table::num(res.affected),
                   util::Table::num(res.requests),
                   util::Table::num(res.repairs),
                   util::Table::num(res.max_delay_seconds, 2),
                   util::Table::num(res.last_member_delay_rtt, 2)});
    if (res.recovered != res.affected && !result.recovery) {
      std::cout << "WARNING: round " << r + 1 << " recovered "
                << res.recovered << "/" << res.affected << "\n";
    }
  }
  table.print(std::cout);

  std::cout << "\nconformance: "
            << (result.conformance.clean() ? std::string("clean\n")
                                           : result.conformance.report());
  std::cout << "network totals: " << result.totals.multicasts_sent
            << " multicasts, " << result.totals.link_transmissions
            << " link transmissions, " << result.totals.drops << " drops\n";

  // Fold the trace back into per-loss recovery stories and cross-check the
  // reconstruction against the aggregate per-round counters.
  bool trace_ok = true;
  if (!trace_path.empty()) {
    trace_sink->flush();
    trace_file.close();
    const auto mode = trace_format == "binary"
                          ? std::ios::in | std::ios::binary
                          : std::ios::in;
    std::ifstream in(trace_path, mode);
    const std::vector<trace::Event> events = trace_format == "binary"
                                                 ? trace::read_binary(in)
                                                 : trace::read_jsonl(in);
    const auto timeline = trace::RecoveryTimeline::fold(events);
    std::cout << "\n" << timeline.summary();
    if (!result.recovery &&
        (trace_mask & static_cast<std::uint32_t>(trace::Category::kSrm)) !=
            0) {
      trace_ok = timeline.total_requests() == total_requests &&
                 timeline.total_repairs() == total_repairs;
      std::cout << "trace self-check: ";
      if (trace_ok) {
        std::cout << "OK (" << timeline.total_requests() << " requests, "
                  << timeline.total_repairs()
                  << " repairs match aggregate counters)\n";
      } else {
        std::cout << "MISMATCH (timeline " << timeline.total_requests()
                  << " requests / " << timeline.total_repairs()
                  << " repairs vs aggregate " << total_requests << " / "
                  << total_repairs << ")\n";
      }
    }
  }
  // Under a fault plan the verdict is the recovery checker's.  ROADMAP.md
  // item 11's 40-seed sweep of CI's plans found the conformance fold
  // flagging only names a member reused after a rejoin, which item 11(a)
  // removes.
  if (result.recovery) {
    std::cout << "\n" << result.recovery->summary();
    const fault::FaultInjector::Stats& fs = result.fault_totals;
    std::cout << "fault totals: " << fs.links_taken_down << " links down, "
              << fs.partitions << " partitions, " << fs.heals << " heals, "
              << fs.joins << " joins, " << fs.leaves + fs.crashes
              << " departures, " << fs.burst_epochs << " burst epochs\n";
    return result.recovery->passed && trace_ok ? 0 : 1;
  }
  return result.conformance.clean() && trace_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(srm::util::Flags(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "srmsim: " << e.what() << "\n";
    return 1;
  }
}
