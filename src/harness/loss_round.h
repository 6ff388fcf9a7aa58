// One loss-recovery round, exactly as in Sec. V: the source multicasts a
// packet that the congested link drops, then, one second later, a second
// packet that is not dropped; receivers downstream of the congested link
// detect the gap and the request/repair algorithms run until every member
// holds the dropped packet.
// The round runner collects the quantities the paper's figures plot.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/scenario.h"
#include "harness/session.h"
#include "srm/messages.h"
#include "srm/names.h"

namespace srm::harness {

struct RoundSpec {
  net::NodeId source_node = 0;     // the member that sends the data
  DirectedLink congested{0, 0};    // directed link that drops the packet
  PageId page{0, 0};
  // How the source transmits (default: SrmAgent::send_data).  Framing
  // layers (srm/fec's FecSession) route both of the round's sends through
  // their own send path here; the returned name must still carry the seq
  // the runner expects to drop.
  std::function<DataName(SrmAgent&, const PageId&, Payload)> send_fn;
};

struct RoundResult {
  // Control traffic for this one loss.
  std::size_t requests = 0;  // total REQUEST transmissions, all members
  std::size_t repairs = 0;   // total REPAIR transmissions, all members

  std::size_t affected = 0;    // members sharing the loss
  std::size_t recovered = 0;   // of those, members that got the repair

  // Loss recovery delay of the member that received the repair last
  // (absolute), expressed in that member's RTT to the source (Fig. 3/4
  // bottom panels).
  double last_member_delay_rtt = 0.0;
  double max_delay_seconds = 0.0;

  // Request delay (timer set -> first request) of the affected member
  // closest to the source; minimum across ties (Sec. VI's metric).
  double closest_request_delay_rtt = 0.0;
  bool closest_request_delay_valid = false;

  // Distinct members that received (or sent) a REPAIR, for local-recovery
  // coverage measurements.
  std::size_t members_reached_by_repair = 0;

  // Network cost counters over the round.
  std::uint64_t link_transmissions = 0;

  // Transmission times of every request/repair, in round-relative virtual
  // time, ordered by send time.  Lets analysis benches count e.g. the
  // "initial burst" of requests (those within one propagation time of the
  // first), which is what the Sec. IV-B formulas describe.
  std::vector<double> request_times;
  std::vector<double> repair_times;

  // Requests sent within `window` seconds of the first request.
  std::size_t requests_within(double window) const {
    std::size_t n = 0;
    for (double t : request_times) {
      if (t <= request_times.front() + window) ++n;
    }
    return n;
  }
};

// Runs one round on an existing session.  `seq` is the sequence number of
// the dropped packet; the runner sends `seq` (dropped) and `seq + 1`.
// The session's drop policy is replaced for the duration of the round.
// Requires: the source node hosts a member; every member has contiguous
// state up to `seq` (fresh sessions and repeated rounds both satisfy this).
RoundResult run_loss_round(SimSession& session, const RoundSpec& spec,
                           SeqNo seq);

}  // namespace srm::harness
