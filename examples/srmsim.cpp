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
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "fault/checker.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/fault_scenarios.h"
#include "harness/loss_round.h"
#include "srm/fec/session.h"
#include "harness/replication.h"
#include "harness/scenario.h"
#include "harness/session.h"
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
  --pdes-verify   run the scenario on the sequential AND
                  parallel kernels and compare per-round
                  stats; with --faults also diffs the full
                  trace across parallel thread counts;
                  exits non-zero on any mismatch            [false]
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
  auto everything = [](const net::Topology& t) {
    std::vector<net::NodeId> v(t.node_count());
    for (std::size_t i = 0; i < t.node_count(); ++i) {
      v[i] = static_cast<net::NodeId>(i);
    }
    return v;
  };
  if (kind == "btree") {
    auto t = topo::make_bounded_degree_tree(nodes, degree);
    auto c = everything(t);
    return {std::move(t), std::move(c)};
  }
  if (kind == "random-tree") {
    auto t = topo::make_random_tree(nodes, rng);
    auto c = everything(t);
    return {std::move(t), std::move(c)};
  }
  if (kind == "random-graph") {
    auto t = topo::make_random_graph(nodes, edges, rng);
    auto c = everything(t);
    return {std::move(t), std::move(c)};
  }
  if (kind == "chain") {
    auto t = topo::make_chain(nodes);
    auto c = everything(t);
    return {std::move(t), std::move(c)};
  }
  if (kind == "ring") {
    auto t = topo::make_ring(nodes);
    auto c = everything(t);
    return {std::move(t), std::move(c)};
  }
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
  throw std::invalid_argument("unknown --topo: " + kind);
}

// The loss rounds' source member and congested link, drawn from `rng`.
// Routing depends only on the topology, so this needs no session.
harness::RoundSpec round_spec(const net::Topology& topo,
                              const std::vector<net::NodeId>& members,
                              util::Rng& rng) {
  net::Routing routing(topo);
  harness::RoundSpec spec;
  spec.source_node = members[rng.index(members.size())];
  spec.congested = harness::choose_congested_link(routing, spec.source_node,
                                                  members, rng);
  spec.page = PageId{static_cast<SourceId>(spec.source_node), 0};
  return spec;
}

// Coded repair: one FecSession per member, layered over each agent's
// AppHooks, with the rounds' sends routed through the source's session.
// arm_faults() keeps the map in step with membership churn and floors every
// budget during Gilbert-Elliott bursts.  Adaptive-K transitions are
// count-based, so both kernels of --pdes-verify see the same budget.
class CodedRepair {
 public:
  CodedRepair(harness::SimSession& session, const FecConfig& config)
      : session_(&session), config_(config) {
    for (net::NodeId m : session.member_nodes()) add(m);
  }
  // route() hands out closures over `this`.
  CodedRepair(const CodedRepair&) = delete;
  CodedRepair& operator=(const CodedRepair&) = delete;

  void add(net::NodeId node) {
    auto fs = std::make_unique<fec::FecSession>(session_->agent_at(node),
                                                config_);
    if (burst_epoch_) fs->set_burst_epoch(true);
    sessions_[node] = std::move(fs);
  }
  // A departing member's FecSession must die before its agent.
  void remove(net::NodeId node) { sessions_.erase(node); }
  void set_burst_epoch(bool active) {
    burst_epoch_ = active;
    for (auto& [node, fs] : sessions_) fs->set_burst_epoch(active);
  }
  void route(harness::RoundSpec& spec) {
    spec.send_fn = [this](SrmAgent& agent, const PageId& page,
                          Payload payload) {
      return sessions_.at(agent.node())->send(page, std::move(payload));
    };
  }
  // Parity ADUs consume sequence numbers, so each round's dropped seq comes
  // from where the source's stream actually is rather than the fixed
  // 2-per-round arithmetic; it stays put while the source is churned out.
  SeqNo next_round_seq(const harness::RoundSpec& spec) {
    try {
      const SrmAgent& agent = session_->agent_at(spec.source_node);
      const auto adv = agent.advertised_max(StreamKey{agent.id(), spec.page});
      if (adv) round_seq_ = *adv + 1;
    } catch (const std::exception&) {
      // Source currently churned out; the round will report it.
    }
    return round_seq_;
  }

 private:
  harness::SimSession* session_;
  FecConfig config_;
  std::unordered_map<net::NodeId, std::unique_ptr<fec::FecSession>> sessions_;
  bool burst_epoch_ = false;
  SeqNo round_seq_ = 0;
};

// Hierarchical sessions: let two report intervals elapse so every area has
// heard its members and elected a representative, print the steady state
// to `report` (if any), then stop reporting so the loss rounds drain the
// queue.  Both kernels of --pdes-verify warm up identically, so its stats
// diff also covers hierarchy determinism.
void warm_up_hierarchy(harness::SimSession& session, const SrmConfig& cfg,
                       std::ostream* report) {
  SessionHierarchy* hier = session.hierarchy();
  if (hier == nullptr) return;
  const double warm = 2.0 * cfg.hierarchy.report_interval;
  session.run_until(warm);
  if (report != nullptr) {
    std::size_t reps = 0;
    for (std::size_t i = 0; i < session.member_count(); ++i) {
      if (hier->is_representative(session.agent(i))) ++reps;
    }
    const SrmAgent& probe = session.agent(0);
    *report << "hierarchy: " << hier->area_count() << " areas, " << reps
            << " representatives, local TTL " << cfg.hierarchy.local_ttl
            << "\n  warm-up " << warm << "s: " << hier->local_reports_sent()
            << " local + " << hier->global_reports_sent()
            << " global reports, " << hier->pending_wheel_buckets()
            << " timer buckets for " << hier->pending_wheel_items()
            << " pending reports\n  node " << probe.node()
            << " estimates group size " << hier->estimated_group_size(probe)
            << "\n";
  }
  hier->stop();
}

// Arms `plan` before the first round.  Membership churn drives the session
// and, with coded repair, its FecSessions and burst-epoch budget floor.
std::unique_ptr<fault::FaultInjector> arm_faults(harness::SimSession& session,
                                                 fault::FaultPlan plan,
                                                 CodedRepair* coded) {
  auto injector = std::make_unique<fault::FaultInjector>(
      session.queue(), session.mutable_topology(), session.network(),
      std::move(plan), session.rng().fork());
  fault::MembershipHooks membership = harness::membership_hooks(session);
  if (coded != nullptr) {
    auto inner = std::move(membership);
    membership.join = [coded, inner](net::NodeId node) {
      if (inner.join) inner.join(node);
      coded->add(node);
    };
    membership.leave = [coded, inner](net::NodeId node, bool graceful) {
      coded->remove(node);
      if (inner.leave) inner.leave(node, graceful);
    };
    injector->set_epoch_observer(
        [coded](bool active, const net::GilbertElliottDrop::Params&) {
          coded->set_burst_epoch(active);
        });
  }
  injector->set_membership_hooks(std::move(membership));
  // Under the parallel kernel the injector's events (global queue) must
  // emit into the global trace lane so they join the deterministic merge.
  injector->set_tracer(session.control_tracer());
  injector->arm();
  return injector;
}

// The recovery-invariant verdict over a captured trace: every loss at a
// surviving member repaired within the (window-extended) deadline, with no
// repair storms.
fault::CheckerReport check_recovery(const std::vector<trace::Event>& events,
                                    const fault::FaultInjector& injector,
                                    sim::Time end, double deadline) {
  fault::CheckerOptions copts;
  copts.deadline = deadline;
  return fault::RecoveryInvariantChecker(copts).check(
      events, injector.disruption_windows(), end);
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
  const int rounds = static_cast<int>(flags.get_int("rounds", 10));
  const std::uint64_t seed = flags.get_seed(1);
  const bool verbose = flags.get_bool("verbose", false);
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
  const double fault_deadline = flags.get_double("fault-deadline", 100.0);
  const long long kernel_threads_flag = flags.get_int("kernel-threads", 0);
  // srmsim runs one session, so the whole hardware budget belongs to the
  // kernel side (replication = 1); plan_thread_budget caps oversubscription.
  unsigned kernel_threads =
      harness::plan_thread_budget(
          /*requested_replication=*/1,
          kernel_threads_flag > 0 ? static_cast<unsigned>(kernel_threads_flag)
                                  : 0u)
          .kernel_threads;
  const auto kernel_regions =
      static_cast<std::uint32_t>(flags.get_int("kernel-regions", 0));
  const bool pdes_verify = flags.get_bool("pdes-verify", false);
  const bool fec = flags.get_bool("fec", false);
  const auto fec_max_k =
      static_cast<std::size_t>(flags.get_int("fec-max-k", 4));
  if (fec && (fec_max_k < 1 || fec_max_k > fec::kMaxParity)) {
    std::cerr << "srmsim: --fec-max-k must be in [1, 4]\n";
    return 1;
  }
  const bool hierarchy = flags.get_bool("hierarchy", false);
  const auto hier_areas = static_cast<std::uint32_t>(flags.get_int("areas", 0));
  const int local_ttl = static_cast<int>(flags.get_int("local-ttl", 4));
  if (local_ttl < 1) {
    std::cerr << "srmsim: --local-ttl must be >= 1\n";
    return 1;
  }

  fault::FaultPlan fault_plan;
  if (!faults_path.empty()) {
    std::ifstream in(faults_path);
    if (!in) {
      std::cerr << "srmsim: cannot open --faults file: " << faults_path
                << "\n";
      return 1;
    }
    try {
      fault_plan = fault::FaultPlan::parse(in);
    } catch (const std::exception& e) {
      std::cerr << "srmsim: " << faults_path << ": " << e.what() << "\n";
      return 1;
    }
  }
  // Bad topology flags (an unknown --topo, a degree or size its builder
  // rejects, or a world whose source reaches no other member) are reported
  // like every other bad input.
  util::Rng rng(seed);
  BuiltTopology built;
  std::vector<net::NodeId> members;
  harness::RoundSpec spec;
  try {
    built = build_topology(kind, nodes, degree, edges, rng);
    if (member_count == 0 || member_count > built.candidates.size()) {
      member_count = built.candidates.size();
    }
    rng.shuffle(built.candidates);
    members.assign(built.candidates.begin(),
                   built.candidates.begin() + static_cast<long>(member_count));
    std::sort(members.begin(), members.end());
    // Every kernel of --pdes-verify draws from the same fixed pick seed.
    util::Rng pick(seed * 2 + 1);
    spec = round_spec(built.topo, members, pdes_verify ? pick : rng);
  } catch (const std::exception& e) {
    std::cerr << "srmsim: " << e.what() << "\n";
    return 1;
  }

  SrmConfig cfg;
  const double lg = std::log10(static_cast<double>(member_count));
  cfg.timers.c1 = timer_flag(flags, "c1", 2.0);
  cfg.timers.c2 = timer_flag(flags, "c2", 2.0);
  cfg.timers.d1 = timer_flag(flags, "d1", lg);
  cfg.timers.d2 = timer_flag(flags, "d2", lg);
  cfg.backoff_factor = timer_flag(flags, "backoff", 3.0);
  cfg.adaptive.enabled = flags.get_bool("adaptive", false);
  cfg.fec.max_k = fec_max_k;
  cfg.hierarchy.enabled = hierarchy;
  cfg.hierarchy.areas = hier_areas;
  cfg.hierarchy.local_ttl = local_ttl;

  std::cout << "srmsim: " << kind << " with " << built.topo.node_count()
            << " nodes, " << member_count << " members, seed " << seed
            << (cfg.adaptive.enabled ? ", adaptive timers" : "")
            << (hierarchy ? ", hierarchical sessions" : "")
            << (fec ? ", coded repair (max K " + std::to_string(fec_max_k) +
                          ")"
                    : "")
            << "\n";

  const auto session_options = [&](unsigned kthreads) {
    harness::SimSession::Options opts{cfg, seed, /*group=*/1};
    opts.kernel_threads = kthreads;
    opts.kernel_regions = kernel_regions;
    return opts;
  };
  if (pdes_verify) {
    // Run the identical scenario on both kernels and diff everything the
    // harness measures.  The parallel kernel's claim is event-order
    // equivalence, so the comparison is exact — including the double-valued
    // delay statistics, which must match bit for bit.
    const unsigned kt = kernel_threads > 0 ? kernel_threads : 1;
    std::vector<std::string> diffs;
    const auto stat_diff = [&](const char* what, std::uint64_t x,
                               std::uint64_t y) {
      if (x != y) {
        std::ostringstream os;
        os << "network " << what << ": sequential " << x << " vs parallel "
           << y;
        diffs.push_back(os.str());
      }
    };
    const auto net_diff = [&](const net::NetworkStats& a,
                              const net::NetworkStats& b) {
      stat_diff("multicasts", a.multicasts_sent, b.multicasts_sent);
      stat_diff("unicasts", a.unicasts_sent, b.unicasts_sent);
      stat_diff("link transmissions", a.link_transmissions,
                b.link_transmissions);
      stat_diff("deliveries", a.deliveries, b.deliveries);
      stat_diff("drops", a.drops, b.drops);
      stat_diff("ttl prunes", a.ttl_prunes, b.ttl_prunes);
      stat_diff("in-flight invalidations", a.in_flight_invalidated,
                b.in_flight_invalidated);
    };
    if (!fault_plan.empty()) {
      // With a fault plan the scenario includes stochastic (keyed
      // Gilbert-Elliott) loss, churn, and partitions.  Three runs: the
      // sequential kernel, the parallel kernel at 1 thread, and at the
      // requested thread count.  The parallel runs must produce
      // bit-identical merged traces (the strongest claim); the parallel
      // run must match the sequential one on network stats and on every
      // recovery-invariant-checker counter.
      struct FaultModeResult {
        std::vector<trace::Event> events;
        net::NetworkStats stats;
        fault::CheckerReport report;
        fault::Conformance conformance;
        std::size_t disrupted = 0;
      };
      const auto run_fault_mode = [&](unsigned kthreads) {
        FaultModeResult mr;
        harness::SimSession session(net::Topology(built.topo), members,
                                    session_options(kthreads));
        trace::VectorSink capture;
        trace::Tracer vtracer;
        vtracer.set_sink(&capture);
        vtracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                         static_cast<std::uint32_t>(trace::Category::kFault));
        session.set_tracer(&vtracer);
        const auto injector = arm_faults(session, fault_plan, nullptr);
        for (int r = 0; r < rounds; ++r) {
          try {
            harness::run_loss_round(session, spec,
                                    static_cast<SeqNo>(r) * 2);
          } catch (const std::exception&) {
            ++mr.disrupted;  // the plan ate the round; all runs must agree
          }
        }
        mr.report = check_recovery(capture.events(), *injector,
                                   session.queue().now(), fault_deadline);
        mr.conformance =
            harness::check_conformance(session, capture.events());
        mr.events = capture.events();
        mr.stats = session.network_stats();
        return mr;
      };
      const FaultModeResult seq = run_fault_mode(0);
      const FaultModeResult p1 = run_fault_mode(1);
      const FaultModeResult pkt = run_fault_mode(kt);
      if (p1.events.size() != pkt.events.size()) {
        std::ostringstream os;
        os << "parallel trace length: 1-thread " << p1.events.size()
           << " events vs " << kt << "-thread " << pkt.events.size();
        diffs.push_back(os.str());
      } else {
        for (std::size_t i = 0; i < p1.events.size(); ++i) {
          if (p1.events[i] != pkt.events[i]) {
            std::ostringstream os;
            os << "parallel traces diverge at event " << i << " (t="
               << p1.events[i].t << " vs t=" << pkt.events[i].t << ")";
            diffs.push_back(os.str());
            break;
          }
        }
      }
      net_diff(seq.stats, pkt.stats);
      stat_diff("checker losses", seq.report.losses, pkt.report.losses);
      stat_diff("checker recovered", seq.report.recovered,
                pkt.report.recovered);
      stat_diff("checker storm violations", seq.report.storm_violations,
                pkt.report.storm_violations);
      stat_diff("checker verdict", seq.report.passed ? 1 : 0,
                pkt.report.passed ? 1 : 0);
      stat_diff("conformance data", seq.conformance.data_seen,
                pkt.conformance.data_seen);
      stat_diff("conformance requests", seq.conformance.requests_seen,
                pkt.conformance.requests_seen);
      stat_diff("conformance repairs", seq.conformance.repairs_seen,
                pkt.conformance.repairs_seen);
      stat_diff("conformance violations", seq.conformance.violations.size(),
                pkt.conformance.violations.size());
      stat_diff("disrupted rounds", seq.disrupted, pkt.disrupted);
      if (diffs.empty()) {
        std::cout << "pdes-verify: OK (fault plan, " << p1.events.size()
                  << "-event trace bit-identical at 1 vs " << kt
                  << " threads; stats and recovery invariants match the "
                     "sequential kernel)\n";
        return 0;
      }
      std::cout << "pdes-verify: MISMATCH (" << diffs.size()
                << " differences)\n";
      for (const std::string& d : diffs) std::cout << "  " << d << "\n";
      return 1;
    }
    struct ModeResult {
      std::vector<harness::RoundResult> rounds;
      net::NetworkStats stats;
    };
    const auto run_mode = [&](unsigned kthreads) {
      harness::SimSession session(net::Topology(built.topo), members,
                                  session_options(kthreads));
      warm_up_hierarchy(session, cfg, nullptr);
      harness::RoundSpec rspec = spec;
      std::unique_ptr<CodedRepair> coded;
      if (fec) {
        coded = std::make_unique<CodedRepair>(session, cfg.fec);
        coded->route(rspec);
      }
      ModeResult mr;
      for (int r = 0; r < rounds; ++r) {
        const SeqNo seq = coded ? coded->next_round_seq(rspec)
                                : static_cast<SeqNo>(r) * 2;
        mr.rounds.push_back(harness::run_loss_round(session, rspec, seq));
      }
      mr.stats = session.network_stats();
      return mr;
    };
    const ModeResult seq = run_mode(0);
    const ModeResult par = run_mode(kt);
    for (int r = 0; r < rounds; ++r) {
      const harness::RoundResult& a = seq.rounds[static_cast<std::size_t>(r)];
      const harness::RoundResult& b = par.rounds[static_cast<std::size_t>(r)];
      const auto diff = [&](const char* what, double x, double y) {
        if (x != y) {
          std::ostringstream os;
          os << "round " << r + 1 << " " << what << ": sequential " << x
             << " vs parallel " << y;
          diffs.push_back(os.str());
        }
      };
      diff("requests", static_cast<double>(a.requests),
           static_cast<double>(b.requests));
      diff("repairs", static_cast<double>(a.repairs),
           static_cast<double>(b.repairs));
      diff("affected", static_cast<double>(a.affected),
           static_cast<double>(b.affected));
      diff("recovered", static_cast<double>(a.recovered),
           static_cast<double>(b.recovered));
      diff("link transmissions", static_cast<double>(a.link_transmissions),
           static_cast<double>(b.link_transmissions));
      diff("repair reach", static_cast<double>(a.members_reached_by_repair),
           static_cast<double>(b.members_reached_by_repair));
      diff("max delay", a.max_delay_seconds, b.max_delay_seconds);
      diff("last delay/RTT", a.last_member_delay_rtt, b.last_member_delay_rtt);
      if (a.request_times != b.request_times) {
        diffs.push_back("round " + std::to_string(r + 1) +
                        " request-time vectors differ");
      }
      if (a.repair_times != b.repair_times) {
        diffs.push_back("round " + std::to_string(r + 1) +
                        " repair-time vectors differ");
      }
    }
    net_diff(seq.stats, par.stats);
    if (diffs.empty()) {
      std::cout << "pdes-verify: OK (" << rounds
                << " rounds bit-identical, sequential vs " << kt
                << "-thread parallel kernel)\n";
      return 0;
    }
    std::cout << "pdes-verify: MISMATCH (" << diffs.size() << " differences)\n";
    for (const std::string& d : diffs) std::cout << "  " << d << "\n";
    return 1;
  }

  harness::SimSession session(std::move(built.topo), members,
                              session_options(kernel_threads));
  if (session.kernel() != nullptr) {
    std::cout << "parallel kernel: " << session.region_map().count
              << " regions, lookahead " << session.region_map().lookahead
              << ", " << kernel_threads << " worker thread"
              << (kernel_threads == 1 ? "" : "s") << "\n";
  }
  // Structured tracing: one Tracer for the whole run, on either kernel.  An
  // in-memory capture of the srm and fault categories feeds the conformance
  // fold (and, with a fault plan, the recovery-invariant checker); the
  // --trace file receives exactly the categories --trace-mask names.
  constexpr std::uint32_t kCheckedMask =
      static_cast<std::uint32_t>(trace::Category::kSrm) |
      static_cast<std::uint32_t>(trace::Category::kFault);
  std::ofstream trace_file;
  std::unique_ptr<trace::Sink> trace_sink;
  trace::VectorSink capture;
  trace::TeeSink tee;
  trace::Tracer tracer;
  tee.add(&capture, kCheckedMask);
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
    std::cout << "tracing " << trace::format_mask(trace_mask) << " ("
              << trace_format << ") to " << trace_path << "\n";
    tee.add(trace_sink.get(), trace_mask);
  }
  tracer.set_sink(&tee);
  tracer.set_mask(trace_mask | kCheckedMask);
  session.set_tracer(&tracer);

  warm_up_hierarchy(session, cfg, &std::cout);
  std::unique_ptr<CodedRepair> coded;
  if (fec) coded = std::make_unique<CodedRepair>(session, cfg.fec);
  std::unique_ptr<fault::FaultInjector> injector;
  if (!fault_plan.empty()) {
    injector = arm_faults(session, std::move(fault_plan), coded.get());
    std::cout << "fault plan: " << faults_path << " ("
              << injector->plan().size() << " events, deadline "
              << fault_deadline << "s)\n";
  }
  if (verbose && session.kernel() != nullptr) {
    std::cout << "(--verbose is sequential-kernel only; ignoring)\n";
  } else if (verbose) {
    session.network().set_send_observer(
        [&](net::NodeId from, const net::Packet& p) {
          std::cout << "  t=" << session.queue().now() << " node " << from
                    << " " << p.payload->describe() << "\n";
        });
  }

  std::cout << "source node " << spec.source_node << ", congested link ("
            << spec.congested.from << " -> " << spec.congested.to << ")\n\n";
  if (coded) coded->route(spec);

  util::Table table({"round", "affected", "requests", "repairs",
                     "last delay (s)", "last delay/RTT"});
  std::size_t total_requests = 0;
  std::size_t total_repairs = 0;
  for (int r = 0; r < rounds; ++r) {
    harness::RoundResult res;
    const SeqNo round_seq =
        coded ? coded->next_round_seq(spec) : static_cast<SeqNo>(r) * 2;
    try {
      res = harness::run_loss_round(session, spec, round_seq);
    } catch (const std::exception& e) {
      // With a fault plan active a round can be unrunnable (the source
      // crashed, the congested link is already down, the partition ate the
      // scripted drop).  That is the scenario working as intended; the
      // invariant checker below still judges every loss that did happen.
      if (injector == nullptr) throw;
      std::cout << "round " << r + 1 << " disrupted by faults (" << e.what()
                << ")\n";
      continue;
    }
    total_requests += res.requests;
    total_repairs += res.repairs;
    table.add_row({util::Table::num(static_cast<std::size_t>(r + 1)),
                   util::Table::num(res.affected),
                   util::Table::num(res.requests),
                   util::Table::num(res.repairs),
                   util::Table::num(res.max_delay_seconds, 2),
                   util::Table::num(res.last_member_delay_rtt, 2)});
    if (res.recovered != res.affected && injector == nullptr) {
      std::cout << "WARNING: round " << r + 1 << " recovered "
                << res.recovered << "/" << res.affected << "\n";
    }
  }
  table.print(std::cout);

  const fault::Conformance conformance =
      harness::check_conformance(session, capture.events());
  std::cout << "\nconformance: "
            << (conformance.clean() ? std::string("clean\n")
                                    : conformance.report());
  const net::NetworkStats totals = session.network_stats();
  std::cout << "network totals: " << totals.multicasts_sent << " multicasts, "
            << totals.link_transmissions << " link transmissions, "
            << totals.drops << " drops\n";

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
    if (injector == nullptr &&
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
  // With faults active the conformance fold sees duplicate repairs and
  // timer restarts that are legitimate under churn, so the pass/fail verdict
  // comes from the recovery-invariant checker instead.
  if (injector != nullptr) {
    const fault::CheckerReport report =
        check_recovery(capture.events(), *injector,
                       session.queue().now(), fault_deadline);
    std::cout << "\n" << report.summary();
    const auto& fs = injector->stats();
    std::cout << "fault totals: " << fs.links_taken_down << " links down, "
              << fs.partitions << " partitions, " << fs.heals << " heals, "
              << fs.joins << " joins, " << fs.leaves + fs.crashes
              << " departures, " << fs.burst_epochs << " burst epochs\n";
    return report.passed && trace_ok ? 0 : 1;
  }
  return conformance.clean() && trace_ok ? 0 : 1;
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
