// SpanSink: the benchmark's trace consumer.
//
// Attached to a SimSession's Tracer, it turns the simulator's existing trace
// records into per-layer numbers without any instrumentation inside src/:
//
//   - Spans.  Every kernel callback is one span, from one sim.fire record to
//     the next (or to finish()).  Only those boundary records are stamped
//     with steady_clock.  The first net.deliver kind or srm timer-fire record
//     inside a span classifies it (on_data, on_request, on_repair,
//     on_session, req_timer, rep_timer; anything else is "other").  Spans
//     are flat, so a span's duration is its self time.  Spans stay in memory
//     and write_spans() saves them when the run ends.
//   - Counts.  Records by type: schedules and cancels (sim), timer sets,
//     sends, backoffs and suppressions (srm), and per-region load (net
//     deliveries plus srm timer fires, attributed through a region map).
//   - Checker input.  The srm and fault records RecoveryInvariantChecker
//     folds are kept as Events.
//
// Under the parallel kernel the trace lanes reach the sink only after the
// run ends, so timing is meaningless there: construct with timed = false
// and only the counts are collected.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace srm::perfbench {

class SpanSink final : public trace::Sink {
 public:
  enum Kind : std::uint8_t {
    kOther = 0,
    kOnData,
    kOnRequest,
    kOnRepair,
    kOnSession,
    kReqTimer,
    kRepTimer,
    kKindCount,
  };
  static constexpr std::array<const char*, kKindCount> kKindNames = {
      "other",      "on_data",   "on_request", "on_repair",
      "on_session", "req_timer", "rep_timer"};

  // `timed`: stamp span boundaries (sequential kernel only).
  explicit SpanSink(bool timed) : timed_(timed) {}

  // Attributes load to kernel regions through `region_of[node]`
  // (SimSession::region_map()); must outlive the sink's use.
  void set_region_map(const std::vector<std::uint32_t>* region_of,
                      std::size_t regions) {
    region_of_ = region_of;
    if (region_load_.size() < regions) region_load_.resize(regions, 0);
  }

  void on_event(const trace::Event& ev) override {
    ++records_;
    using T = trace::EventType;
    switch (ev.type) {
      case T::kSimFire:
        if (timed_) {
          const auto now = Clock::now();
          close_span(now);
          span_open_ = true;
          span_start_ = now;
        }
        break;
      case T::kSimSchedule:
        ++schedules_;
        break;
      case T::kSimCancel:
        ++cancels_;
        break;
      case T::kNetDeliver:
        classify(kind_of_message(ev.b));
        add_region_load(ev.actor);
        break;
      case T::kSrmReqTimerSet:
        ++req_timer_sets_;
        break;
      case T::kSrmReqFire:
        classify(kReqTimer);
        add_region_load(ev.actor);
        break;
      case T::kSrmReqSend:
        ++req_sends_;
        break;
      case T::kSrmReqBackoff:
        ++backoffs_;
        break;
      case T::kSrmRepTimerSet:
        ++rep_timer_sets_;
        break;
      case T::kSrmRepFire:
        classify(kRepTimer);
        add_region_load(ev.actor);
        break;
      case T::kSrmRepSuppress:
        ++rep_suppressions_;
        break;
      default:
        break;
    }
    if (keep_for_checker(ev.type)) checker_events_.push_back(ev);
  }

  // Closes the open span; call when the kernel returns.
  void finish() { close_span(Clock::now()); }

  // Hands the checker's records to the caller and clears them (one world
  // at a time in sweeps).
  std::vector<trace::Event> take_checker_events() {
    std::vector<trace::Event> out;
    out.swap(checker_events_);
    return out;
  }

  // Saves every span as one little-endian uint32: low 3 bits the Kind, the
  // other 29 bits the self time in ns (saturating).  Returns false on I/O
  // failure.
  bool write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok =
        std::fwrite(spans_.data(), sizeof(std::uint32_t), spans_.size(), f) ==
        spans_.size();
    return std::fclose(f) == 0 && ok;
  }

  std::uint64_t records() const { return records_; }
  std::uint64_t schedules() const { return schedules_; }
  std::uint64_t cancels() const { return cancels_; }
  std::uint64_t req_timer_sets() const { return req_timer_sets_; }
  std::uint64_t req_sends() const { return req_sends_; }
  std::uint64_t backoffs() const { return backoffs_; }
  std::uint64_t rep_timer_sets() const { return rep_timer_sets_; }
  std::uint64_t rep_suppressions() const { return rep_suppressions_; }
  std::uint64_t span_count(Kind k) const { return span_count_[k]; }
  // Mean self time of one span of kind k, in ns (0 when none).
  double span_mean_ns(Kind k) const {
    return span_count_[k] == 0 ? 0.0
                               : static_cast<double>(span_ns_[k]) /
                                     static_cast<double>(span_count_[k]);
  }
  const std::vector<std::uint64_t>& region_load() const {
    return region_load_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static Kind kind_of_message(std::uint64_t trace_kind) {
    switch (trace_kind) {  // srm/messages.h trace_kind()
      case 1: return kOnData;
      case 2: return kOnRequest;
      case 3: return kOnRepair;
      case 4: return kOnSession;
      default: return kOther;
    }
  }
  static bool keep_for_checker(trace::EventType t) {
    using T = trace::EventType;
    switch (t) {
      case T::kSrmLoss:
      case T::kSrmRecovered:
      case T::kSrmAbandoned:
      case T::kSrmReqSend:
      case T::kSrmRepSend:
      case T::kSrmAdaptReq:
      case T::kSrmAdaptRep:
      case T::kFaultCrash:
      case T::kFaultLeave:
        return true;
      default:
        return false;
    }
  }

  void classify(Kind k) {
    if (span_open_ && span_kind_ == kOther) span_kind_ = k;
  }
  void add_region_load(std::uint64_t node) {
    if (region_of_ != nullptr && node < region_of_->size()) {
      ++region_load_[(*region_of_)[node]];
    }
  }
  void close_span(Clock::time_point now) {
    if (!span_open_) return;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - span_start_)
            .count());
    span_ns_[span_kind_] += ns;
    ++span_count_[span_kind_];
    const std::uint64_t capped = ns < (1u << 29) ? ns : (1u << 29) - 1;
    spans_.push_back(static_cast<std::uint32_t>(capped << 3) | span_kind_);
    span_open_ = false;
    span_kind_ = kOther;
  }

  bool timed_;
  const std::vector<std::uint32_t>* region_of_ = nullptr;
  std::vector<std::uint64_t> region_load_;

  bool span_open_ = false;
  Kind span_kind_ = kOther;
  Clock::time_point span_start_{};
  std::array<std::uint64_t, kKindCount> span_ns_{};
  std::array<std::uint64_t, kKindCount> span_count_{};
  std::vector<std::uint32_t> spans_;

  std::uint64_t records_ = 0;
  std::uint64_t schedules_ = 0;
  std::uint64_t cancels_ = 0;
  std::uint64_t req_timer_sets_ = 0;
  std::uint64_t req_sends_ = 0;
  std::uint64_t backoffs_ = 0;
  std::uint64_t rep_timer_sets_ = 0;
  std::uint64_t rep_suppressions_ = 0;
  std::vector<trace::Event> checker_events_;
};

}  // namespace srm::perfbench
