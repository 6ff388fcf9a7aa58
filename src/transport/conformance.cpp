#include "transport/conformance.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>

#include "net/network.h"
#include "sim/event_queue.h"
#include "srm/agent.h"
#include "srm/config.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "trace/trace.h"
#include "transport/drop_script.h"
#include "transport/udp_transport.h"
#include "util/rng.h"

namespace srm::transport {

namespace {

constexpr net::GroupId kGroup = 1;
constexpr PageId kPage{0, 1};
// The distance every agent uses on both backends, which spaces decisions
// far above UDP jitter (~2 ms); the conformance fold judges hold-down at it.
constexpr double kDistance = 0.05;

// Both backends run the identical protocol configuration.  Session messages
// are off and the agents opt out of the simulator's distance oracle, so every
// distance is default_distance on both sides and the per-member RNG streams
// (seeded seed*1000+ordinal) produce identical timer draws.  C2 = 0 keeps
// the request side deterministic; D2 comes from the scenario (the
// suppression race wants a randomized repair window).
SrmConfig scenario_config(const Scenario& scenario) {
  SrmConfig config;
  config.timers.c1 = 2.0;
  config.timers.c2 = 0.0;
  config.timers.d1 = 1.0;
  config.timers.d2 = scenario.d2;
  config.backoff_factor = 3.0;
  config.distance_mode = DistanceMode::kEstimated;
  config.default_distance = kDistance;
  config.session.enabled = false;
  return config;
}

util::Rng member_rng(const Scenario& scenario, std::uint32_t ordinal) {
  return util::Rng(scenario.seed * 1000 + ordinal);
}

ScenarioResult fold_result(const std::vector<trace::Event>& events,
                           std::size_t scripted_drops) {
  ScenarioResult result;
  result.scripted_drops_fired = scripted_drops;
  result.stories = trace::RecoveryTimeline::fold(events).stories();
  std::sort(result.stories.begin(), result.stories.end(),
            [](const trace::RecoveryStory& a, const trace::RecoveryStory& b) {
              return a.adu < b.adu;
            });
  result.all_recovered =
      !result.stories.empty() &&
      std::all_of(result.stories.begin(), result.stories.end(),
                  [](const trace::RecoveryStory& story) {
                    return story.recoveries >= story.detections &&
                           story.abandoned == 0;
                  });
  result.conformance = fault::check_conformance(
      events, [](std::uint64_t, std::uint64_t) { return kDistance; });
  return result;
}

// The one scenario runner: member ordinal i lives at node nodes[i] of
// `transport`, and run_until(t) drives the backend to its time t.  Scripted
// loss is the backend's one receive filter, keyed by receiving node.
ScenarioResult run_scenario(const Scenario& scenario, Transport& transport,
                            const std::vector<net::NodeId>& nodes,
                            const std::function<void(double)>& run_until) {
  MemberDirectory directory;
  const SrmConfig config = scenario_config(scenario);

  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm));

  DropScript script;
  for (const ScriptedDrop& drop : scenario.drops) {
    script.arm(nodes.at(drop.at_member), drop.kind, drop.seq, drop.count);
  }
  transport.set_receive_filter(script.filter());

  std::vector<std::unique_ptr<SrmAgent>> agents;
  for (std::uint32_t i = 0; i < scenario.members; ++i) {
    auto agent = std::make_unique<SrmAgent>(transport, directory, nodes[i],
                                            /*id=*/i, kGroup, config,
                                            member_rng(scenario, i));
    agent->set_tracer(&tracer);
    agent->start();
    agents.push_back(std::move(agent));
  }

  for (std::size_t k = 0; k < scenario.sends; ++k) {
    transport.queue().schedule_at(
        scenario.first_send + scenario.send_gap * static_cast<double>(k),
        [&agents, k] {
          agents[0]->send_data(kPage,
                               Payload{static_cast<std::uint8_t>(k), 0xAB});
        });
  }
  run_until(scenario.end_time());

  for (auto& agent : agents) agent->stop();
  transport.set_receive_filter(nullptr);
  return fold_result(sink.events(), script.fired());
}

}  // namespace

// ---------------------------------------------------------------------------
// Canonical scenarios
// ---------------------------------------------------------------------------

std::vector<Scenario> conformance_scenarios() {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.name = "clean-loss";
    s.description =
        "one receiver misses DATA seq 0; exactly one request, one repair";
    s.members = 2;
    s.seed = 7;
    s.drops = {{/*at_member=*/1, /*kind=*/1, /*seq=*/0, /*count=*/1}};
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lost-request";
    s.description =
        "the first REQUEST is lost at the source; the requestor's backoff "
        "timer fires and the second request is answered";
    s.members = 2;
    s.seed = 11;
    s.drops = {{1, 1, 0, 1},   // receiver misses DATA seq 0
               {0, 2, 0, 1}};  // source misses the first REQUEST for it
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lost-repair";
    s.description =
        "the first REPAIR is lost at the requestor; the re-request arrives "
        "after the responder's holddown and draws a second repair";
    s.members = 2;
    s.seed = 13;
    s.drops = {{1, 1, 0, 1},   // receiver misses DATA seq 0
               {1, 3, 0, 1}};  // ...and the first REPAIR for it
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "repair-suppression";
    s.description =
        "two holders race to answer one request; the later timer is "
        "suppressed by the earlier holder's repair";
    s.members = 3;
    s.seed = 5;  // chosen so the two repair draws are well separated
    s.d2 = 1.0;
    s.drops = {{1, 1, 0, 1}};  // only member 1 misses DATA seq 0
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

ScenarioResult run_scenario_sim(const Scenario& scenario) {
  const topo::Star star = topo::make_star(scenario.members, 0.001);
  sim::EventQueue queue;
  net::MulticastNetwork network(queue, star.topo);
  return run_scenario(scenario, network, star.leaves,
                      [&queue](double t) { queue.run_until(t); });
}

ScenarioResult run_scenario_udp(const Scenario& scenario) {
  UdpTransport transport;
  std::vector<net::NodeId> nodes(scenario.members);
  std::iota(nodes.begin(), nodes.end(), net::NodeId{0});
  return run_scenario(scenario, transport, nodes,
                      [&transport](double t) { transport.run_for(t); });
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

std::string diff_results(const ScenarioResult& sim_result,
                         const ScenarioResult& udp_result) {
  std::ostringstream os;
  if (sim_result.stories.size() != udp_result.stories.size()) {
    os << "story count differs: sim=" << sim_result.stories.size()
       << " udp=" << udp_result.stories.size();
    return os.str();
  }
  for (std::size_t i = 0; i < sim_result.stories.size(); ++i) {
    const std::string a = sim_result.stories[i].timing_free();
    const std::string b = udp_result.stories[i].timing_free();
    if (a != b) {
      os << "story " << i << " differs:\n  sim: " << a << "\n  udp: " << b;
      return os.str();
    }
  }
  if (sim_result.scripted_drops_fired != udp_result.scripted_drops_fired) {
    os << "scripted drop count differs: sim="
       << sim_result.scripted_drops_fired
       << " udp=" << udp_result.scripted_drops_fired;
    return os.str();
  }
  const fault::Conformance& a = sim_result.conformance;
  const fault::Conformance& b = udp_result.conformance;
  if (a.data_seen != b.data_seen || a.requests_seen != b.requests_seen ||
      a.repairs_seen != b.repairs_seen ||
      a.violations.size() != b.violations.size()) {
    os << "conformance counts differ (data/requests/repairs/violations): sim="
       << a.data_seen << "/" << a.requests_seen << "/" << a.repairs_seen
       << "/" << a.violations.size() << " udp=" << b.data_seen << "/"
       << b.requests_seen << "/" << b.repairs_seen << "/"
       << b.violations.size();
    return os.str();
  }
  return "";
}

}  // namespace srm::transport
