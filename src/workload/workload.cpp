#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness/session.h"
#include "net/packet.h"
#include "sim/event_queue.h"
#include "srm/agent.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "trace/timeline.h"
#include "trace/trace.h"
#include "transport/drop_script.h"
#include "transport/udp_transport.h"
#include "util/rng.h"

namespace srm::workload {

namespace {

constexpr net::GroupId kGroup = 1;
constexpr PageId kPage{0, 1};

// Both backends run with estimated distances (constant default_distance —
// the UDP backend has no oracle, and the suite wants the identical timer
// regime on both) and session messages off, so a workload's recovery
// behaviour depends only on the scripted traffic and the member RNG streams.
SrmConfig base_config() {
  SrmConfig config;
  config.distance_mode = DistanceMode::kEstimated;
  config.default_distance = 0.05;
  config.session.enabled = false;
  return config;
}

// What a backend must provide for the action interpreter: the Transport
// its members speak through, member lookup/churn by ordinal, and a
// run-to-horizon loop.
class Host {
 public:
  virtual ~Host() = default;
  virtual transport::Transport& backend() = 0;
  virtual SrmAgent* find(std::uint32_t ordinal) = 0;
  virtual void join(std::uint32_t ordinal) = 0;
  virtual void part(std::uint32_t ordinal, bool graceful) = 0;
  virtual net::NodeId node_of(std::uint32_t ordinal) const = 0;
  // The SRM Source-ID the backend assigned the ordinal (node id on both
  // backends, but sim node ids are not ordinals — star leaves start at 1).
  virtual SourceId source_of(std::uint32_t ordinal) const = 0;
  virtual void run(double until) = 0;
};

class SimHost final : public Host {
 public:
  SimHost(const WorkloadSpec& spec, trace::Tracer* tracer)
      : star_(topo::make_star(spec.peak_members, 0.01)) {
    harness::SimSession::Options options;
    options.srm = spec.config;
    options.seed = spec.seed;
    options.group = kGroup;
    std::vector<net::NodeId> initial;
    for (std::size_t i = 0; i < spec.initial_members; ++i) {
      initial.push_back(star_.leaves[i]);
    }
    session_ = std::make_unique<harness::SimSession>(star_.topo, initial,
                                                     options);
    session_->set_tracer(tracer);
  }

  transport::Transport& backend() override { return session_->network(); }

  SrmAgent* find(std::uint32_t ordinal) override {
    const net::NodeId node = node_of(ordinal);
    return session_->has_member(node) ? &session_->agent_at(node) : nullptr;
  }

  void join(std::uint32_t ordinal) override {
    session_->add_member(node_of(ordinal));
  }

  void part(std::uint32_t ordinal, bool graceful) override {
    session_->remove_member(node_of(ordinal), graceful);
  }

  net::NodeId node_of(std::uint32_t ordinal) const override {
    return star_.leaves.at(ordinal);
  }

  SourceId source_of(std::uint32_t ordinal) const override {
    return star_.leaves.at(ordinal);  // SimSession: Source-ID == node id
  }

  void run(double until) override { session_->run_until(until); }

 private:
  topo::Star star_;
  std::unique_ptr<harness::SimSession> session_;
};

class UdpHost final : public Host {
 public:
  UdpHost(const WorkloadSpec& spec, trace::Tracer* tracer)
      : spec_(spec), tracer_(tracer) {
    agents_.resize(spec.peak_members);
    for (std::uint32_t i = 0; i < spec.initial_members; ++i) join(i);
  }

  transport::Transport& backend() override { return transport_; }

  SrmAgent* find(std::uint32_t ordinal) override {
    return agents_.at(ordinal).get();
  }

  void join(std::uint32_t ordinal) override {
    auto agent = std::make_unique<SrmAgent>(
        transport_, directory_, /*node=*/ordinal, /*id=*/ordinal, kGroup,
        spec_.config, util::Rng(spec_.seed * 1000 + ordinal));
    agent->set_tracer(tracer_);
    agent->start();
    agents_.at(ordinal) = std::move(agent);
  }

  void part(std::uint32_t ordinal, bool graceful) override {
    // Graceful vs. crash is indistinguishable at this backend's transport
    // (no departure announcement without session messages); both detach.
    (void)graceful;
    agents_.at(ordinal).reset();
  }

  net::NodeId node_of(std::uint32_t ordinal) const override { return ordinal; }

  SourceId source_of(std::uint32_t ordinal) const override { return ordinal; }

  void run(double until) override {
    const double remaining = until - transport_.elapsed();
    if (remaining > 0) transport_.run_for(remaining);
  }

 private:
  const WorkloadSpec& spec_;
  trace::Tracer* tracer_;
  transport::UdpTransport transport_;
  MemberDirectory directory_;
  std::vector<std::unique_ptr<SrmAgent>> agents_;
};

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto idx = static_cast<std::size_t>(std::ceil(p * n));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

// kDropOnce actions arm `script`, installed as the backend's receive
// filter; its rules name receiving nodes, so arming resolves ordinals.
WorkloadResult execute(const WorkloadSpec& spec, Host& host,
                       transport::DropScript& script,
                       trace::VectorSink& sink) {
  WorkloadResult result;
  host.backend().set_receive_filter(script.filter());
  for (const Action& action : spec.actions) {
    host.backend().queue().schedule_at(action.at, [&host, &script, &result,
                                                   action] {
      ++result.actions_executed;
      SrmAgent* agent = host.find(action.member);
      switch (action.kind) {
        case Action::Kind::kSend:
          if (agent) {
            agent->send_data(action.page,
                             Payload(action.payload_bytes,
                                     static_cast<std::uint8_t>(action.member)));
            ++result.data_sent;
          }
          break;
        case Action::Kind::kJoin:
          if (!agent) {
            host.join(action.member);
            ++result.joins;
          }
          break;
        case Action::Kind::kLeave:
        case Action::Kind::kCrash:
          if (agent) {
            host.part(action.member, action.kind == Action::Kind::kLeave);
            ++result.departures;
          }
          break;
        case Action::Kind::kDropOnce: {
          // Generators speak member ordinals; the script matches wire-level
          // Source-IDs, so translate here where the backend is known.
          SourceId source = action.drop_source;
          if (source != kInvalidSource) {
            source = host.source_of(static_cast<std::uint32_t>(source));
          }
          script.arm(host.node_of(action.member), action.drop_kind,
                     action.drop_seq, action.drop_count, source);
          break;
        }
        case Action::Kind::kPageProbe:
          if (agent) agent->request_page_state(action.page);
          break;
      }
    });
  }
  host.run(spec.duration);

  const std::vector<trace::Event>& events = sink.events();
  fault::RecoveryInvariantChecker checker(spec.checker);
  result.checker = checker.check(events, /*windows=*/{}, spec.duration);
  result.passed = result.checker.passed;
  result.scripted_drops = script.fired();

  const auto timeline = trace::RecoveryTimeline::fold(events);
  std::ostringstream digest;
  digest << spec.name << "|" << spec.seed;
  result.losses = timeline.stories().size();
  for (const auto& story : timeline.stories()) {
    result.requests += story.requests_sent;
    result.repairs += story.repairs_sent;
    result.recoveries += story.recoveries;
    digest << "|" << trace::to_string(story.adu) << ":" << story.detections
           << "," << story.requests_sent << "," << story.request_backoffs
           << "," << story.repairs_sent << "," << story.repair_suppressions
           << "," << story.recoveries << "," << story.abandoned << ","
           << story.first_detector << "," << story.first_requestor << ","
           << story.first_responder;
  }
  digest << "|sent=" << result.data_sent << " joins=" << result.joins
         << " departures=" << result.departures
         << " drops=" << result.scripted_drops;
  result.fingerprint = fnv1a64(digest.str());

  std::vector<double> latencies = result.checker.recovery_latencies;
  std::sort(latencies.begin(), latencies.end());
  result.recovery_p50 = percentile(latencies, 0.50);
  result.recovery_p99 = percentile(latencies, 0.99);
  result.recovery_max = latencies.empty() ? 0.0 : latencies.back();
  return result;
}

WorkloadResult run_spec(const WorkloadSpec& spec, bool udp) {
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm));
  transport::DropScript script;  // outlives the host whose filter it is
  if (udp) {
    UdpHost host(spec, &tracer);
    return execute(spec, host, script, sink);
  }
  SimHost host(spec, &tracer);
  return execute(spec, host, script, sink);
}

util::Rng generator_rng(std::uint64_t seed, std::uint64_t salt) {
  return util::Rng(seed * 0x9E3779B97F4A7C15ull + salt);
}

void sort_actions(WorkloadSpec& spec) {
  std::stable_sort(spec.actions.begin(), spec.actions.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });
}

Action send_action(double at, std::uint32_t member, PageId page) {
  Action a;
  a.at = at;
  a.kind = Action::Kind::kSend;
  a.member = member;
  a.page = page;
  return a;
}

// Drop the DATA packet (from `source`, seq `seq`) about to arrive at
// `member`: the rule is armed just before the send fires.
Action drop_action(double send_at, std::uint32_t member, SourceId source,
                   SeqNo seq) {
  Action a;
  a.at = send_at - 0.01;
  a.kind = Action::Kind::kDropOnce;
  a.member = member;
  a.drop_kind = 1;
  a.drop_seq = seq;
  a.drop_source = source;
  a.drop_count = 1;
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

WorkloadSpec make_flash_crowd(std::size_t members, std::uint64_t seed) {
  members = std::max<std::size_t>(members, 4);
  WorkloadSpec spec;
  spec.name = "flash-crowd";
  spec.seed = seed;
  spec.peak_members = members;
  spec.initial_members = std::max<std::size_t>(2, members / 6);
  spec.config = base_config();
  spec.duration = 12.0;
  spec.checker.deadline = 4.0;
  // The crowd legitimately needs up to (joiners x history) repair traffic in
  // one burst — each late joiner retro-detects the full 27-ADU history at
  // once — so the storm budget is that envelope, not the flat per-member
  // default; a super-linear implosion still trips it.
  spec.checker.storm_budget = std::max<std::size_t>(
      200, (members - std::max<std::size_t>(2, members / 6)) * 27);
  util::Rng rng = generator_rng(seed, 1);

  // The source streams one ADU every 250 ms; the first ~10 are "history" the
  // crowd will never see on the wire.
  for (SeqNo k = 0; k < 27; ++k) {
    spec.actions.push_back(send_action(0.4 + 0.25 * static_cast<double>(k),
                                       /*member=*/0, kPage));
  }
  // Background receive loss at the core members keeps ordinary
  // request/repair traffic flowing before and during the flash.
  for (SeqNo k = 10; k < 27; k += 5) {
    if (spec.initial_members < 2) break;
    const auto victim = static_cast<std::uint32_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(spec.initial_members) - 1));
    spec.actions.push_back(
        drop_action(0.4 + 0.25 * static_cast<double>(k), victim, 0, k));
  }
  // The flash: everyone else joins within 1.2 s and immediately probes the
  // page, so the whole crowd enters page-state recovery at once.
  for (std::size_t m = spec.initial_members; m < members; ++m) {
    const double at = 3.0 + rng.uniform(0.0, 1.2);
    Action join;
    join.at = at;
    join.kind = Action::Kind::kJoin;
    join.member = static_cast<std::uint32_t>(m);
    spec.actions.push_back(join);
    Action probe = join;
    probe.at = at + 0.08;
    probe.kind = Action::Kind::kPageProbe;
    probe.page = kPage;
    spec.actions.push_back(probe);
  }
  sort_actions(spec);
  return spec;
}

WorkloadSpec make_conference(std::size_t members, std::uint64_t seed) {
  members = std::max<std::size_t>(members, 4);
  WorkloadSpec spec;
  spec.name = "conference";
  spec.seed = seed;
  spec.peak_members = members;
  spec.initial_members = members;
  spec.config = base_config();
  spec.duration = 12.0;
  spec.checker.deadline = 3.5;
  spec.checker.storm_budget = std::max<std::size_t>(200, members * 4);
  util::Rng rng = generator_rng(seed, 2);

  // NETRAWALM-style floor passing: one active speaker at a time, talk spurts
  // of 0.6-1.4 s at 10 ADUs/s, randomized receive loss scripted against the
  // known send schedule (each speaker's seq counter is deterministic).
  const auto speakers = std::min<std::size_t>(5, members);
  std::vector<SeqNo> next_seq(speakers, 0);
  double t = 0.5;
  std::uint32_t prev = 0xFFFFFFFFu;
  while (t < 8.0) {
    auto s = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(speakers) - 1));
    if (speakers > 1 && s == prev) s = (s + 1) % speakers;
    prev = s;
    const double spurt_end = std::min(t + rng.uniform(0.6, 1.4), 8.0);
    while (t < spurt_end) {
      const SeqNo q = next_seq[s]++;
      spec.actions.push_back(send_action(t, s, kPage));
      if (rng.chance(0.12)) {
        auto victim = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(members) - 1));
        if (victim == s) victim = (victim + 1) % members;
        spec.actions.push_back(drop_action(t, victim, s, q));
      }
      t += 0.1;
    }
    t += rng.uniform(0.05, 0.2);
  }
  sort_actions(spec);
  return spec;
}

WorkloadSpec make_diurnal(std::size_t members, std::uint64_t seed) {
  members = std::max<std::size_t>(members, 4);
  WorkloadSpec spec;
  spec.name = "diurnal";
  spec.seed = seed;
  spec.peak_members = members;
  spec.initial_members = std::max<std::size_t>(2, members / 3);
  spec.config = base_config();
  spec.duration = 12.0;
  spec.checker.deadline = 3.5;
  // As in flash-crowd, the join wave's page-state recovery scales with
  // (joiners x stream history): budget the envelope, catch the blowup.
  spec.checker.storm_budget = std::max<std::size_t>(
      200, (members - std::max<std::size_t>(2, members / 3)) * 45);
  util::Rng rng = generator_rng(seed, 3);

  // Steady stream under a membership tide: a join wave crests around t=3,
  // the drain (mostly graceful, some crashes) around t=8.5.
  for (SeqNo k = 0; k < 30; ++k) {
    const double at = 0.4 + 0.3 * static_cast<double>(k);
    spec.actions.push_back(send_action(at, /*member=*/0, kPage));
    if (k >= 4 && rng.chance(0.15)) {
      const auto victim = static_cast<std::uint32_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(members) - 1));
      spec.actions.push_back(drop_action(at, victim, 0, k));
    }
  }
  for (std::size_t m = spec.initial_members; m < members; ++m) {
    Action join;
    join.at = 1.5 + rng.uniform(0.0, 3.5);
    join.kind = Action::Kind::kJoin;
    join.member = static_cast<std::uint32_t>(m);
    spec.actions.push_back(join);
    Action depart = join;
    depart.at = 7.0 + rng.uniform(0.0, 3.0);
    depart.kind =
        rng.chance(0.25) ? Action::Kind::kCrash : Action::Kind::kLeave;
    spec.actions.push_back(depart);
  }
  sort_actions(spec);
  return spec;
}

WorkloadSpec make_repair_storm(std::size_t members, std::uint64_t seed) {
  members = std::max<std::size_t>(members, 4);
  WorkloadSpec spec;
  spec.name = "repair-storm";
  spec.seed = seed;
  spec.peak_members = members;
  spec.initial_members = members;
  spec.config = base_config();
  spec.duration = 12.0;
  spec.checker.deadline = 4.0;
  spec.checker.storm_budget = std::max<std::size_t>(200, members * 4);
  util::Rng rng = generator_rng(seed, 4);

  // Adversarial correlated loss: every other ADU is dropped at 60% of the
  // receivers simultaneously, so the request/repair timers face the paper's
  // worst case — the checker's sliding-window budget is the assertion that
  // suppression keeps the implosion bounded.
  const auto receivers = members - 1;
  const auto victims_per_burst = std::max<std::size_t>(1, (receivers * 3) / 5);
  // 13 sends so the last burst (k=11) is revealed by a later arrival: gap
  // detection needs a higher seq to advertise the missing one.
  for (SeqNo k = 0; k < 13; ++k) {
    const double at = 0.5 + 0.6 * static_cast<double>(k);
    spec.actions.push_back(send_action(at, /*member=*/0, kPage));
    if (k % 2 == 0) continue;
    std::vector<std::uint32_t> pool(receivers);
    std::iota(pool.begin(), pool.end(), 1u);
    for (std::size_t i = 0; i < victims_per_burst; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(i),
          static_cast<std::int64_t>(pool.size()) - 1));
      std::swap(pool[i], pool[j]);
      spec.actions.push_back(drop_action(at, pool[i], 0, k));
    }
  }
  sort_actions(spec);
  return spec;
}

std::vector<std::string> workload_names() {
  return {"flash-crowd", "conference", "diurnal", "repair-storm"};
}

WorkloadSpec make_workload(const std::string& name, std::size_t members,
                           std::uint64_t seed) {
  if (name == "flash-crowd") return make_flash_crowd(members, seed);
  if (name == "conference") return make_conference(members, seed);
  if (name == "diurnal") return make_diurnal(members, seed);
  if (name == "repair-storm") return make_repair_storm(members, seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

WorkloadResult run_workload_sim(const WorkloadSpec& spec) {
  return run_spec(spec, /*udp=*/false);
}

WorkloadResult run_workload_udp(const WorkloadSpec& spec) {
  return run_spec(spec, /*udp=*/true);
}

}  // namespace srm::workload
