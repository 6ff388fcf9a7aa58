#include "harness/run.h"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "harness/fault_scenarios.h"
#include "harness/session.h"
#include "srm/fec/session.h"

namespace srm::harness {

namespace {

constexpr std::uint32_t kCheckedMask =
    static_cast<std::uint32_t>(trace::Category::kSrm) |
    static_cast<std::uint32_t>(trace::Category::kFault);

// Coded repair: one FecSession per member, layered over each agent's
// AppHooks, with the rounds' sends routed through the source's session.
// arm_faults() keeps the map in step with membership churn and floors every
// budget during Gilbert-Elliott bursts.  Adaptive-K transitions are
// count-based, so every kernel sees the same budget.
class CodedRepair {
 public:
  CodedRepair(SimSession& session, const FecConfig& config)
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
  void route(RoundSpec& spec) {
    spec.send_fn = [this](SrmAgent& agent, const PageId& page,
                          Payload payload) {
      return sessions_.at(agent.node())->send(page, std::move(payload));
    };
  }
  // Parity ADUs consume sequence numbers, so each round's dropped seq comes
  // from where the source's stream actually is rather than the fixed
  // 2-per-round arithmetic; it stays put while the source is churned out.
  SeqNo next_round_seq(const RoundSpec& spec) {
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
  SimSession* session_;
  FecConfig config_;
  std::unordered_map<net::NodeId, std::unique_ptr<fec::FecSession>> sessions_;
  bool burst_epoch_ = false;
  SeqNo round_seq_ = 0;
};

// Hierarchical sessions: let two report intervals elapse so every area has
// heard its members and elected a representative, record the steady state,
// then stop reporting so the loss rounds drain the queue.
HierarchyState warm_up_hierarchy(SimSession& session, const SrmConfig& cfg) {
  SessionHierarchy& hier = *session.hierarchy();
  HierarchyState state;
  state.warm_up = 2.0 * cfg.hierarchy.report_interval;
  session.run_until(state.warm_up);
  state.areas = hier.area_count();
  for (std::size_t i = 0; i < session.member_count(); ++i) {
    if (hier.is_representative(session.agent(i))) ++state.representatives;
  }
  state.local_reports = hier.local_reports_sent();
  state.global_reports = hier.global_reports_sent();
  state.wheel_buckets = hier.pending_wheel_buckets();
  state.wheel_items = hier.pending_wheel_items();
  state.group_size_estimate = hier.estimated_group_size(session.agent(0));
  hier.stop();
  return state;
}

// Arms `plan` before the first round.  Membership churn drives the session
// and, with coded repair, its FecSessions and burst-epoch budget floor.
std::unique_ptr<fault::FaultInjector> arm_faults(SimSession& session,
                                                 fault::FaultPlan plan,
                                                 CodedRepair* coded) {
  auto injector = std::make_unique<fault::FaultInjector>(
      session.queue(), session.mutable_topology(), session.network(),
      std::move(plan), session.rng().fork());
  fault::MembershipHooks membership = membership_hooks(session);
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

// Every statistic two runs of one scenario must agree on, as (name, value)
// pairs in a fixed order; doubles print exactly.  The wheel buckets are
// kept per event queue, so they are left out.
std::vector<std::pair<std::string, std::string>> statistics(
    const ScenarioResult& r) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto add = [&out](std::string name, const auto& value) {
    std::ostringstream os;
    os << std::setprecision(17) << value;
    out.emplace_back(std::move(name), os.str());
  };
  const auto times = [](const std::vector<double>& v) {
    std::ostringstream os;
    os << std::setprecision(17) << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? " " : "") << v[i];
    os << ']';
    return os.str();
  };
  add("rounds", r.rounds.size());
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    const std::string p = "round " + std::to_string(i + 1) + " ";
    const RoundResult& x = r.rounds[i].result;
    add(p + "disruption", r.rounds[i].disruption);
    add(p + "requests", x.requests);
    add(p + "repairs", x.repairs);
    add(p + "affected", x.affected);
    add(p + "recovered", x.recovered);
    add(p + "link transmissions", x.link_transmissions);
    add(p + "repair reach", x.members_reached_by_repair);
    add(p + "max delay", x.max_delay_seconds);
    add(p + "last delay/RTT", x.last_member_delay_rtt);
    add(p + "closest request delay/RTT", x.closest_request_delay_rtt);
    add(p + "closest request delay valid", x.closest_request_delay_valid);
    add(p + "request times", times(x.request_times));
    add(p + "repair times", times(x.repair_times));
  }
  const net::NetworkStats& n = r.totals;
  add("network multicasts", n.multicasts_sent);
  add("network unicasts", n.unicasts_sent);
  add("network link transmissions", n.link_transmissions);
  add("network deliveries", n.deliveries);
  add("network drops", n.drops);
  add("network ttl prunes", n.ttl_prunes);
  add("network in-flight invalidations", n.in_flight_invalidated);
  add("conformance data", r.conformance.data_seen);
  add("conformance requests", r.conformance.requests_seen);
  add("conformance repairs", r.conformance.repairs_seen);
  add("conformance violations", r.conformance.violations.size());
  const fault::CheckerReport report = r.recovery.value_or(
      fault::CheckerReport{});
  add("recovery checked", r.recovery.has_value());
  add("checker verdict", report.passed);
  add("checker losses", report.losses);
  add("checker recovered", report.recovered);
  add("checker unrecovered", report.unrecovered.size());
  add("checker storm violations", report.storm_violations);
  const fault::FaultInjector::Stats& f = r.fault_totals;
  add("fault links down", f.links_taken_down);
  add("fault links up", f.links_brought_up);
  add("fault partitions", f.partitions);
  add("fault heals", f.heals);
  add("fault joins", f.joins);
  add("fault leaves", f.leaves);
  add("fault crashes", f.crashes);
  add("fault burst epochs", f.burst_epochs);
  const HierarchyState h = r.hierarchy.value_or(HierarchyState{});
  add("hierarchy", r.hierarchy.has_value());
  add("hierarchy areas", h.areas);
  add("hierarchy representatives", h.representatives);
  add("hierarchy local reports", h.local_reports);
  add("hierarchy global reports", h.global_reports);
  add("hierarchy pending reports", h.wheel_items);
  add("hierarchy group-size estimate", h.group_size_estimate);
  return out;
}

}  // namespace

ScenarioResult run(const Scenario& scenario, unsigned kernel_threads) {
  // Declared before the session, which keeps pointers to them.
  trace::VectorSink capture;
  trace::TeeSink tee;
  trace::Tracer tracer;
  tee.add(&capture, kCheckedMask);
  std::uint32_t mask = kCheckedMask;
  if (scenario.trace_sink != nullptr) {
    tee.add(scenario.trace_sink, scenario.trace_mask);
    mask |= scenario.trace_mask;
  }
  tracer.set_sink(&tee);
  tracer.set_mask(mask);
  std::ostringstream sends;

  SimSession::Options options{scenario.srm, scenario.seed, /*group=*/1};
  options.kernel_threads = kernel_threads;
  options.kernel_regions = scenario.kernel_regions;
  SimSession session(net::Topology(scenario.topo), scenario.members, options);
  session.set_tracer(&tracer);

  ScenarioResult out;
  out.kernel_regions = session.region_map().count;
  out.lookahead = session.region_map().lookahead;
  if (session.hierarchy() != nullptr) {
    out.hierarchy = warm_up_hierarchy(session, scenario.srm);
  }
  RoundSpec spec = scenario.round;
  std::unique_ptr<CodedRepair> coded;
  if (scenario.coded_repair) {
    coded = std::make_unique<CodedRepair>(session, scenario.srm.fec);
    coded->route(spec);
  }
  std::unique_ptr<fault::FaultInjector> injector;
  if (!scenario.faults.empty()) {
    injector = arm_faults(session, scenario.faults, coded.get());
  }
  if (scenario.log_sends && session.kernel() == nullptr) {
    session.network().set_send_observer(
        [&](net::NodeId from, const net::Packet& p) {
          sends << "  t=" << session.queue().now() << " node " << from << " "
                << p.payload->describe() << "\n";
        });
  }

  for (int r = 0; r < scenario.rounds; ++r) {
    RoundOutcome& round = out.rounds.emplace_back();
    const SeqNo seq =
        coded ? coded->next_round_seq(spec) : static_cast<SeqNo>(r) * 2;
    try {
      round.result = run_loss_round(session, spec, seq);
    } catch (const std::exception& e) {
      if (injector == nullptr) throw;
      round.disruption = e.what();
    }
    round.sends = sends.str();
    sends.str("");
  }

  out.totals = session.network_stats();
  out.conformance = check_conformance(session, capture.events());
  if (injector != nullptr) {
    fault::CheckerOptions checker;
    checker.deadline = scenario.fault_deadline;
    out.recovery = fault::RecoveryInvariantChecker(checker).check(
        capture.events(), injector->disruption_windows(),
        session.queue().now());
    out.fault_totals = injector->stats();
  }
  out.capture = capture.events();
  return out;
}

std::vector<std::string> diff(const ScenarioResult& a,
                              const ScenarioResult& b) {
  const auto x = statistics(a);
  const auto y = statistics(b);
  std::vector<std::string> out;
  // Past a differing round count the names no longer pair up.
  const std::size_t n = std::min(x.size(), y.size());
  for (std::size_t i = 0; i < n && x[i].first == y[i].first; ++i) {
    if (x[i].second != y[i].second) {
      out.push_back(x[i].first + ": " + x[i].second + " vs " + y[i].second);
    }
  }
  return out;
}

std::vector<std::string> compare_kernels(const ScenarioResult& seq,
                                         const ScenarioResult& p1,
                                         const ScenarioResult& pk,
                                         unsigned k) {
  std::vector<std::string> out;
  const auto [at1, atk] = std::mismatch(p1.capture.begin(), p1.capture.end(),
                                        pk.capture.begin(), pk.capture.end());
  if (at1 != p1.capture.end() || atk != pk.capture.end()) {
    out.push_back("parallel traces diverge at event " +
                  std::to_string(at1 - p1.capture.begin()) + " of " +
                  std::to_string(p1.capture.size()) + " vs " +
                  std::to_string(pk.capture.size()));
  }
  for (const auto& [threads, par] : {std::pair{1u, &p1}, {k, &pk}}) {
    for (const std::string& d : diff(seq, *par)) {
      out.push_back("sequential vs " + std::to_string(threads) + "-thread " +
                    d);
    }
  }
  return out;
}

}  // namespace srm::harness
