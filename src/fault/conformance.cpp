#include "fault/conformance.h"

#include <array>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "srm/config.h"
#include "trace/timeline.h"

namespace srm::fault {

namespace {

using trace::AduKey;
using trace::EventType;
using MemberAdu = std::pair<std::uint64_t, AduKey>;

AduKey adu_of(const trace::Event& ev) { return {ev.a, ev.b, ev.c, ev.d}; }

std::string node(std::uint64_t member) {
  return "node " + std::to_string(member);
}

}  // namespace

Conformance check_conformance(const std::vector<trace::Event>& events,
                              const Distance& distance) {
  Conformance out;
  // Possession evidence: names a member originated, heard or repaired.
  std::set<MemberAdu> holds;
  // Names for which a member heard a repair.
  std::set<MemberAdu> repaired;
  // Last repair send time per (member, name), for hold-down.
  std::map<MemberAdu, double> last_repair_send;
  // Payload digest per name (first send wins).
  std::map<AduKey, double> canonical;
  // Highest DATA seq sent per (source, page).
  std::map<std::array<std::uint64_t, 3>, std::uint64_t> last_sent_seq;
  // Members away between a leave/crash and a join/rejoin.
  std::set<std::uint64_t> departed;

  const auto flag = [&out](const char* rule, std::string detail, double t) {
    out.violations.push_back(Violation{rule, std::move(detail), t});
  };
  const auto check_payload = [&](const trace::Event& ev, const char* what,
                                 const char* differs) {
    const auto [it, inserted] = canonical.try_emplace(adu_of(ev), ev.y);
    if (!inserted && it->second != ev.y) {
      flag("payload-consistency",
           std::string(what) + " " + trace::to_string(adu_of(ev)) + differs,
           ev.t);
    }
  };
  const auto check_scope = [&](const trace::Event& ev, const char* what) {
    if (ev.x > ev.y) {
      flag("scoping",
           std::string(what) + " " + trace::to_string(adu_of(ev)) +
               " traveled " + std::to_string(static_cast<long long>(ev.x)) +
               " hops with ttl " +
               std::to_string(static_cast<long long>(ev.y)),
           ev.t);
    }
  };

  for (const trace::Event& ev : events) {
    const MemberAdu key{ev.actor, adu_of(ev)};
    switch (ev.type) {
      case EventType::kSrmDataSend: {
        ++out.data_seen;
        holds.insert(key);
        // 5. strictly increasing per-page sequence numbers from a source.
        const auto [it, first] =
            last_sent_seq.try_emplace({ev.actor, ev.b, ev.c}, ev.d);
        if (!first && ev.d <= it->second) {
          flag("sequencing",
               node(ev.actor) + " sent seq " + std::to_string(ev.d) +
                   " after " + std::to_string(it->second),
               ev.t);
        }
        it->second = ev.d;
        // 4. payload consistency.
        check_payload(ev, "DATA", " differs from first transmission");
        break;
      }
      case EventType::kSrmDataHear:
        holds.insert(key);
        break;
      case EventType::kSrmReqSend:
        ++out.requests_seen;
        // 1. no request for data this member demonstrably has.
        if (holds.count(key) != 0) {
          flag("no-request-for-held-data",
               node(ev.actor) + " requested " + trace::to_string(key.second) +
                   " which it holds",
               ev.t);
        }
        // 2. no request after a heard repair for the same name.
        if (repaired.count(key) != 0) {
          flag("no-request-after-repair",
               node(ev.actor) + " requested " + trace::to_string(key.second) +
                   " after its repair",
               ev.t);
        }
        break;
      case EventType::kSrmReqHear:
        check_scope(ev, "REQUEST");  // 6.
        break;
      case EventType::kSrmRepSend: {
        ++out.repairs_seen;
        holds.insert(key);  // sending a repair proves possession
        // 3. hold-down, except for a two-step repair's step two.
        if (ev.x != 2.0) {
          const auto it = last_repair_send.find(key);
          if (it != last_repair_send.end()) {
            double d = ev.actor == ev.a || departed.count(ev.a) != 0
                           ? 0.0
                           : distance(ev.actor, ev.a);
            if (std::isinf(d)) d = 0.0;  // no meaningful bound
            const double gap = ev.t - it->second;
            if (d > 0.0 && gap < kHolddownMultiplier * d - 1e-9) {
              std::ostringstream os;
              os << node(ev.actor) << " repaired "
                 << trace::to_string(key.second) << " twice within " << gap
                 << "s (holddown " << kHolddownMultiplier * d << "s)";
              flag("holddown", os.str(), ev.t);
            }
          }
          last_repair_send[key] = ev.t;
        }
        check_payload(ev, "REPAIR", " differs from original data");  // 4.
        break;
      }
      case EventType::kSrmRepHear:
        holds.insert(key);
        repaired.insert(key);
        check_scope(ev, "REPAIR");  // 6.
        break;
      case EventType::kFaultLeave:
      case EventType::kFaultCrash: {
        const auto of_member = [&ev](const MemberAdu& k) {
          return k.first == ev.actor;
        };
        std::erase_if(holds, of_member);
        std::erase_if(repaired, of_member);
        std::erase_if(last_repair_send, [&](const auto& entry) {
          return of_member(entry.first);
        });
        departed.insert(ev.actor);
        break;
      }
      case EventType::kFaultJoin:
      case EventType::kFaultRejoin:
        departed.erase(ev.actor);
        break;
      default:
        break;
    }
  }
  return out;
}

std::string Conformance::report() const {
  std::ostringstream os;
  os << violations.size() << " violation(s)\n";
  for (const Violation& v : violations) {
    os << "  [" << v.rule << "] t=" << v.when << ": " << v.detail << "\n";
  }
  return os.str();
}

}  // namespace srm::fault
