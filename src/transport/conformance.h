// Cross-backend conformance (ARCHITECTURE.md §13): the same scripted loss
// scenario runs once over the simulator's net::MulticastNetwork and once
// over UdpTransport, through one runner that sees only the Transport
// interface.  Both traces fold through trace::RecoveryTimeline, and the
// per-loss recovery stories are compared by their timing-free rendering
// (RecoveryStory::timing_free) — every milestone (detection, request,
// backoff, repair, suppression, recovery) with its actor and multiplicity
// must match; only wall-clock times may differ.  Both traces also fold
// through the six Sec. III-B rules (fault/conformance.h).
//
// Why this is a fair determinism bar: both backends construct agents with
// identical per-member RNG streams, session messages disabled and
// DistanceMode::kEstimated, so every timer draw is the same number of
// seconds on both sides (distance is config.default_distance everywhere —
// the UDP backend has no oracle, and the agents opt out of the simulator's).
// The scenarios are built so consecutive decision points are separated by
// O(default_distance) = tens of milliseconds, far above the UDP backend's
// worst-case timer/delivery jitter (poll granularity, ~2 ms), so the
// milestone *order* is invariant even though absolute times are not.
// Scripted loss is one transport::DropScript installed as the backend's one
// receive filter, keyed by receiving node, so both backends drop the same
// packets by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/conformance.h"
#include "net/packet.h"
#include "srm/names.h"
#include "trace/timeline.h"

namespace srm::transport {

// One scripted receive-side drop rule: the first `count` messages of `kind`
// naming ADU seq `seq` that arrive at member ordinal `at_member` are
// dropped.  Kinds use the srm trace_kind values (1=DATA, 2=REQUEST,
// 3=REPAIR).
struct ScriptedDrop {
  std::uint32_t at_member = 0;
  std::uint32_t kind = 1;
  SeqNo seq = 0;
  std::size_t count = 1;
};

// A scripted loss scenario.  Member ordinals double as SourceIds (and as
// node ids on the UDP backend); member 0 is the data source and sends ADUs
// seq 0..sends-1 on one page, send_gap seconds apart, starting at
// first_send.
struct Scenario {
  std::string name;
  std::string description;
  std::size_t members = 2;
  std::uint64_t seed = 1;
  std::size_t sends = 2;
  double first_send = 0.25;
  double send_gap = 0.12;
  // Repair-timer width D2 (0 = deterministic repair delay; >0 enables the
  // holder suppression race, decided by the shared RNG draws).
  double d2 = 0.0;
  std::vector<ScriptedDrop> drops;
  // Post-last-send horizon, seconds (virtual on sim, wall on UDP).
  double settle = 2.0;

  double end_time() const {
    return first_send + send_gap * static_cast<double>(sends) + settle;
  }
};

// The canonical scripted loss scenarios the acceptance criteria reference:
// clean single loss, lost first request (requestor backoff), lost repair
// (responder holddown + re-request), and a repair-suppression race between
// two holders.
std::vector<Scenario> conformance_scenarios();

struct ScenarioResult {
  std::vector<trace::RecoveryStory> stories;  // sorted by ADU key
  // The six rules, hold-down judged at the distance every agent of a
  // scenario uses on either backend (config.default_distance).
  fault::Conformance conformance;
  std::size_t scripted_drops_fired = 0;  // receive-filter hits
  bool all_recovered = false;  // every story closed, none abandoned
};

// Each builds a backend and hands it to the one scenario runner, which sees
// only its Transport.  run_scenario_sim: a net::MulticastNetwork over a star
// topology, member i on leaf i, virtual time; deterministic.
ScenarioResult run_scenario_sim(const Scenario& scenario);

// run_scenario_udp: one UdpTransport bus on loopback, member i on node i,
// wall time.  Throws TransportError when the environment lacks loopback
// multicast; gate with UdpTransport::available().
ScenarioResult run_scenario_udp(const Scenario& scenario);

// Empty when the results agree story-for-story (by timing-free rendering),
// in scripted drops and in the conformance fold's counts; otherwise a
// readable description of the first difference.
std::string diff_results(const ScenarioResult& sim_result,
                         const ScenarioResult& udp_result);

}  // namespace srm::transport
