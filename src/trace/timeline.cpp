#include "trace/timeline.h"

#include <cstdio>
#include <map>

namespace srm::trace {

namespace {

// Times render with %.6g: recovery rounds live in seconds with microsecond
// structure, and 6 significant digits keep summaries stable and readable.
void append_time(std::string& out, double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", t);
  out += buf;
}

bool names_adu(EventType type) {
  switch (type) {
    case EventType::kSrmAdaptReq:
    case EventType::kSrmAdaptRep:
      return false;
    // Budget transitions name a stream (d is unused) and parity sends name
    // parity ADUs that are not under recovery; folding either would create
    // spurious stories.  Only fec_reconstruct joins the lost ADU's story.
    case EventType::kSrmFecBudgetRaise:
    case EventType::kSrmFecBudgetDecay:
    case EventType::kSrmFecParity:
      return false;
    // The data path's sends and deliveries name every ADU, lost or not;
    // they feed the conformance fold, not recovery stories.
    case EventType::kSrmDataSend:
    case EventType::kSrmDataHear:
      return false;
    default:
      return category_of(type) == Category::kSrm;
  }
}

}  // namespace

std::string to_string(const AduKey& key) {
  std::string out = "src=" + std::to_string(key.source);
  out += " page=" + std::to_string(key.page_creator) + '.' +
         std::to_string(key.page_number);
  out += " seq=" + std::to_string(key.seq);
  return out;
}

RecoveryTimeline RecoveryTimeline::fold(const std::vector<Event>& events) {
  RecoveryTimeline tl;
  std::map<AduKey, std::size_t> index;
  for (const Event& ev : events) {
    if (!names_adu(ev.type)) continue;
    const AduKey key{ev.a, ev.b, ev.c, ev.d};
    auto [it, inserted] = index.try_emplace(key, tl.stories_.size());
    if (inserted) {
      tl.stories_.emplace_back();
      tl.stories_.back().adu = key;
    }
    RecoveryStory& story = tl.stories_[it->second];
    story.entries.push_back({ev.t, ev.type, ev.actor, ev.e, ev.x});
    switch (ev.type) {
      case EventType::kSrmLoss:
        if (!story.detected) {
          story.first_detect_time = ev.t;
          story.first_detector = ev.actor;
          story.detected = true;
        }
        ++story.detections;
        break;
      case EventType::kSrmReqSend:
        if (story.requests_sent == 0) {
          story.first_request_time = ev.t;
          story.first_requestor = ev.actor;
        }
        ++story.requests_sent;
        break;
      case EventType::kSrmReqBackoff:
        ++story.request_backoffs;
        story.suppression_order.push_back(ev.actor);
        break;
      case EventType::kSrmRepTimerSet:
        ++story.repair_timers_set;
        break;
      case EventType::kSrmRepSend:
        if (story.repairs_sent == 0) {
          story.first_repair_time = ev.t;
          story.first_responder = ev.actor;
        }
        ++story.repairs_sent;
        break;
      case EventType::kSrmRepSuppress:
        ++story.repair_suppressions;
        story.suppression_order.push_back(ev.actor);
        break;
      case EventType::kSrmRecovered:
        ++story.recoveries;
        story.last_recovery_time = ev.t;
        break;
      case EventType::kSrmFecReconstruct:
        ++story.fec_reconstructions;
        break;
      case EventType::kSrmAbandoned:
        ++story.abandoned;
        break;
      default:
        break;
    }
  }
  return tl;
}

std::string RecoveryStory::timing_free() const {
  std::string out = to_string(adu);
  const auto add = [&out](const char* label, std::uint64_t v) {
    out += label;
    out += std::to_string(v);
  };
  add(": det=", detections);
  add(" req=", requests_sent);
  add(" backoff=", request_backoffs);
  add(" rep=", repairs_sent);
  add(" suppress=", repair_suppressions);
  add(" recovered=", recoveries);
  add(" abandoned=", abandoned);
  add(" first[det=", first_detector);
  add(" req=", first_requestor);
  add(" rep=", first_responder);
  out += "] [";
  bool first = true;
  for (const StoryEntry& entry : entries) {
    switch (entry.type) {
      case EventType::kSrmLoss:
      case EventType::kSrmReqSend:
      case EventType::kSrmRepSend:
      case EventType::kSrmRecovered:
      case EventType::kSrmAbandoned:
        if (!first) out += ' ';
        first = false;
        out += spec_of(entry.type).name;
        out += '@' + std::to_string(entry.actor);
        break;
      default:
        break;
    }
  }
  out += ']';
  return out;
}

const RecoveryStory* RecoveryTimeline::find(const AduKey& key) const {
  for (const RecoveryStory& story : stories_) {
    if (story.adu == key) return &story;
  }
  return nullptr;
}

std::size_t RecoveryTimeline::total_requests() const {
  std::size_t n = 0;
  for (const RecoveryStory& s : stories_) n += s.requests_sent;
  return n;
}

std::size_t RecoveryTimeline::total_repairs() const {
  std::size_t n = 0;
  for (const RecoveryStory& s : stories_) n += s.repairs_sent;
  return n;
}

std::string RecoveryTimeline::summary() const {
  std::string out;
  out += "recovery timeline: " + std::to_string(stories_.size()) +
         " loss story(ies)\n";
  for (const RecoveryStory& s : stories_) {
    out += "  [" + to_string(s.adu) + "] ";
    out += std::to_string(s.detections) + " detection(s)";
    if (s.detected) {
      out += " (first by " + std::to_string(s.first_detector) + " at t=";
      append_time(out, s.first_detect_time);
      out += ')';
    }
    out += "; " + std::to_string(s.requests_sent) + " request(s)";
    if (s.requests_sent > 0) {
      out += " (first by " + std::to_string(s.first_requestor) + " at t=";
      append_time(out, s.first_request_time);
      out += ')';
    }
    out += "; " + std::to_string(s.repairs_sent) + " repair(s)";
    if (s.repairs_sent > 0) {
      out += " (first by " + std::to_string(s.first_responder) + " at t=";
      append_time(out, s.first_repair_time);
      out += ')';
    }
    out += "; " + std::to_string(s.recoveries) + " recovered";
    // Rendered only when coded repair actually fired, so summaries of
    // non-FEC traces stay byte-identical to the pre-FEC format.
    if (s.fec_reconstructions > 0) {
      out += "; " + std::to_string(s.fec_reconstructions) +
             " fec-reconstructed";
    }
    if (s.abandoned > 0) {
      out += "; " + std::to_string(s.abandoned) + " abandoned";
    }
    out += '\n';
    if (!s.suppression_order.empty()) {
      out += "    suppression order:";
      for (std::uint64_t actor : s.suppression_order) {
        out += ' ' + std::to_string(actor);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace srm::trace
