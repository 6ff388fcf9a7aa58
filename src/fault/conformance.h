// Protocol conformance as a fold over the srm trace.
//
// The extended report ([12]) describes "the tools that we used to verify
// that our simulator is correctly implementing the loss recovery
// algorithms"; this is our equivalent, and like RecoveryInvariantChecker
// (fault/checker.h) it is pure analysis over a captured event vector, so it
// judges the sequential kernel, the lane-merged parallel kernel and the UDP
// backend alike.  It checks six externally observable Sec. III-B rules:
//
//   1. no-request-for-held-data: a member never sends a REQUEST for an ADU
//      it originated, received (data_hear, rep_hear) or repaired (rep_send),
//   2. no-request-after-repair: once a member heard a REPAIR for an ADU, it
//      never requests that ADU again (names are persistent),
//   3. holddown: a member never sends two REPAIRs for one ADU within
//      kHolddownMultiplier*d_S (3*d_S) of each other, d_S being its distance
//      to the data's source; a requestor's step-two re-multicast of a
//      two-step local repair (rep_send step 2) is exempt,
//   4. payload-consistency: every data_send and rep_send of one name
//      carries the same payload digest ("the name always refers to the same
//      data"),
//   5. sequencing: a source's data_send sequence numbers strictly increase
//      per page,
//   6. scoping: a heard REQUEST or REPAIR never traveled more hops than its
//      initial TTL allows.
//
// A member_leave or member_crash event forgets the departed member's
// possession, repair and hold-down evidence, since a rejoined agent starts
// with an empty store; sequencing and canonical payloads stay, because a
// name keeps naming one datum.  Srm events name Source-IDs and fault events
// name nodes; harness::SimSession makes the two equal.
//
// Violations are recorded, not thrown, so tests can assert on them and
// srmsim can run with checking always on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace srm::fault {

struct Violation {
  std::string rule;
  std::string detail;
  double when = 0.0;
};

// One-way delay in seconds from `member` to the data source `source`, for
// the hold-down rule; +infinity when unknown (the pair is then not judged).
// On the simulator this is the session network's try_distance; a source
// that has left or crashed is not judged either.
using Distance =
    std::function<double(std::uint64_t member, std::uint64_t source)>;

struct Conformance {
  std::vector<Violation> violations;
  // What the fold saw: data_send, req_send and rep_send events.
  std::uint64_t data_seen = 0;
  std::uint64_t requests_seen = 0;
  std::uint64_t repairs_seen = 0;

  bool clean() const { return violations.empty(); }
  // "N violation(s)" and one line per violation.
  std::string report() const;
};

Conformance check_conformance(const std::vector<trace::Event>& events,
                              const Distance& distance);

}  // namespace srm::fault
