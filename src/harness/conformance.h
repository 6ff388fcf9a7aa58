// Online protocol-conformance checking.
//
// The extended report ([12]) describes "the tools that we used to verify
// that our simulator is correctly implementing the loss recovery
// algorithms"; this is our equivalent.  A ConformanceChecker taps the
// network's send/delivery observers (chaining any observers already
// installed) and verifies externally-observable Sec. III-B invariants on
// the live packet stream:
//
//   1. no-request-for-held-data: a member never multicasts a REQUEST for an
//      ADU it previously originated or demonstrably received,
//   2. no-request-after-repair: once a member received a REPAIR for an ADU,
//      it never requests that ADU again (names are persistent),
//   3. holddown: a member never sends two REPAIRs for the same ADU within
//      the kHolddownMultiplier*d_S (3*d_S) hold-down window; a requestor's
//      step-two re-multicast of a two-step local repair is exempt,
//   4. payload-consistency: every DATA/REPAIR for one name carries
//      byte-identical payload ("the name always refers to the same data"),
//   5. sequencing: a source's DATA sequence numbers are strictly increasing
//      per page,
//   6. scoping: a delivered REQUEST/REPAIR never traveled more hops than
//      its initial TTL allows.
//
// Violations are recorded, not thrown, so tests can assert on them and
// benches can run cheaply with checking enabled.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.h"
#include "srm/agent.h"
#include "srm/messages.h"

namespace srm::harness {

struct Violation {
  std::string rule;
  std::string detail;
  double when = 0.0;
};

class ConformanceChecker {
 public:
  // Chains onto the network's observers.  The directory maps message
  // sources to nodes for distance computations.
  ConformanceChecker(net::MulticastNetwork& network,
                     MemberDirectory& directory);
  ~ConformanceChecker();

  ConformanceChecker(const ConformanceChecker&) = delete;
  ConformanceChecker& operator=(const ConformanceChecker&) = delete;

  // Detaches from the network, restoring the previous observers.
  void detach();

  // The member at `node` left or crashed: drops its possession, repair and
  // hold-down evidence, since a rejoined agent starts with an empty store.
  // Sequencing and canonical payloads stay: a name keeps naming one datum.
  void forget(net::NodeId node);

  const std::vector<Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  std::string report() const;

  // Counters for sanity (what the checker actually saw).
  std::uint64_t data_seen() const { return data_seen_; }
  std::uint64_t requests_seen() const { return requests_seen_; }
  std::uint64_t repairs_seen() const { return repairs_seen_; }

 private:
  void on_send(net::NodeId from, const net::Packet& packet);
  void on_delivery(const net::Packet& packet, const net::DeliveryInfo& info);
  void flag(const std::string& rule, const std::string& detail);

  net::MulticastNetwork* network_;
  MemberDirectory* directory_;

  net::MulticastNetwork::SendObserver previous_send_;
  net::MulticastNetwork::DeliveryObserver previous_delivery_;
  bool attached_ = false;

  // Possession evidence per member (node id): names originated or received.
  std::unordered_map<net::NodeId, std::unordered_set<DataName>> holds_;
  // Names for which a member received (or sent) a repair.
  std::unordered_map<net::NodeId, std::unordered_set<DataName>> repaired_;
  // Last repair send time per (node, name) for hold-down checking.
  std::map<std::pair<net::NodeId, DataName>, double> last_repair_send_;
  // Canonical payload per name (first seen wins).
  std::unordered_map<DataName, Payload> canonical_;
  // Highest DATA seq sent per (source node, page).
  std::map<std::pair<net::NodeId, PageId>, SeqNo> last_sent_seq_;
  std::set<std::pair<net::NodeId, PageId>> any_sent_;

  std::vector<Violation> violations_;
  std::uint64_t data_seen_ = 0;
  std::uint64_t requests_seen_ = 0;
  std::uint64_t repairs_seen_ = 0;
};

}  // namespace srm::harness
