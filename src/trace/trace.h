// Structured event tracing (the ns-style trace layer of the lineage SRM
// work; cf. "SRM at 30" in PAPERS.md).
//
// The paper's entire evaluation is built on per-loss recovery timelines —
// who detected a loss, whose request timer fired first, who got suppressed,
// who answered — so the simulator emits a structured, replayable stream of
// events from its three layers:
//
//   sim  - event-queue schedule / fire / cancel, with slab handle ids
//   net  - packet send / deliver / drop / TTL-prune, with link, TTL and
//          group context
//   srm  - timer set / fire / suppress, data / request / repair send /
//          hear, backoff, adaptive-parameter updates, recovery-scope
//          decisions
//
// Zero cost when disabled: every instrumentation site is guarded by a single
// branch on a relaxed atomic bitmask (`Tracer::wants`).  Components hold a
// Tracer pointer that is never null (defaulting to the always-disabled
// `Tracer::null()`), so the disabled fast path is one load + test + branch
// and no event is ever constructed.  The mask is per-Tracer, not global:
// parallel replications (harness::ReplicationRunner) each own a Tracer and
// never share sinks, which keeps traces bit-identical across --threads.
//
// Events are flat PODs with generic slots (five integers, two doubles); a
// per-EventType schema table (`spec_of`) names each used slot, which is what
// the JSONL backend emits and the JSONL parser accepts.  The compact binary
// backend writes the raw slots.  Both round-trip losslessly through
// read_jsonl() / read_binary() into the same Event vector, so the
// RecoveryTimeline analyzer (trace/timeline.h) folds live captures and
// re-read files identically.
//
// This layer is deliberately below sim/net/srm in the dependency order: it
// knows nothing about DataName or NodeId.  Producers pack their identifiers
// into the generic slots (the srm convention for an ADU name is
// a=source, b=page_c, c=page_n, d=seq; see the schema table in trace.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace srm::trace {

// One bit per instrumented layer.  Values are stable across versions: they
// appear in binary trace files and in --trace-mask.
enum class Category : std::uint32_t {
  kSim = 1u << 0,
  kNet = 1u << 1,
  kSrm = 1u << 2,
  kFault = 1u << 3,  // injected network dynamics (src/fault)
};

inline constexpr std::uint32_t kMaskNone = 0;
inline constexpr std::uint32_t kMaskAll =
    static_cast<std::uint32_t>(Category::kSim) |
    static_cast<std::uint32_t>(Category::kNet) |
    static_cast<std::uint32_t>(Category::kSrm) |
    static_cast<std::uint32_t>(Category::kFault);

// Parses a mask string: comma/plus-separated category names ("srm,net"),
// "all", "none", or a raw decimal number.  Throws std::invalid_argument on
// unknown names.  format_mask is its inverse (canonical "sim,net,srm" form).
std::uint32_t parse_mask(const std::string& text);
std::string format_mask(std::uint32_t mask);

// Every traced event type, all layers.  The numeric values are the wire
// encoding of the binary backend — append only, never renumber.
enum class EventType : std::uint16_t {
  // --- sim (event queue) ---
  kSimSchedule = 0,   // a=slot, b=generation, x=when
  kSimFire = 1,       // a=slot, b=generation
  kSimCancel = 2,     // a=slot, b=generation
  // --- net (multicast network) ---
  kNetSend = 10,      // actor=from node, a=group, b=kind, c=ttl, d=scope
  kNetDeliver = 11,   // actor=to node, a=group, b=kind, c=from, d=hops, x=delay
  kNetDrop = 12,      // actor=from node, a=group, b=kind, c=link_to, d=link id
  kNetPrune = 13,     // actor=from node, a=group, b=kind, c=link_to, d=ttl
  // --- srm (protocol agent); actor is the member SourceId, and events
  // naming an ADU use a=src, b=page_c, c=page_n, d=seq ---
  kSrmLoss = 20,            // e=via_request, y=dist to source
  kSrmReqTimerSet = 21,     // e=backoffs, x=timer delay, y=dist
  kSrmReqFire = 22,         // e=backoffs
  kSrmReqSend = 23,         // e=ttl, x=escalated (0/1)
  kSrmReqHear = 24,         // e=requestor, x=hops, y=initial ttl
  kSrmReqBackoff = 25,      // e=backoffs after, x=ignored (0/1)
  kSrmRepTimerSet = 26,     // e=requestor, x=timer delay, y=dist
  kSrmRepFire = 27,         // (no extra fields)
  kSrmRepSend = 28,         // e=ttl, x=step (0 plain, 1 one, 2 two),
                            // y=payload digest
  kSrmRepHear = 29,         // e=responder, x=hops, y=initial ttl
  kSrmRepSuppress = 30,     // e=responder
  kSrmRecovered = 31,       // x=recovery delay seconds
  kSrmAbandoned = 32,       // (no extra fields)
  kSrmAdaptReq = 33,        // x=c1, y=c2 (after an update)
  kSrmAdaptRep = 34,        // x=d1, y=d2
  kSrmScopeEscalate = 35,   // e=ttl used after escalation
  // --- srm coded repair (srm/fec; ARCHITECTURE.md §11).  Budget events
  // name the stream (a=src, b=page_c, c=page_n; d unused); parity and
  // reconstruct events name an ADU per the usual convention ---
  kSrmFecBudgetRaise = 36,  // e=k_new, x=k_old, y=loss evidence count
  kSrmFecBudgetDecay = 37,  // e=k_new, x=k_old, y=burst epoch active (0/1)
  kSrmFecParity = 38,       // d=parity seq, e=generation, x=scheme, y=k
  kSrmFecReconstruct = 39,  // d=recovered seq, e=generation, x=scheme,
                            // y=erasures repaired in this decode
  // --- fault (injected network dynamics); actor is the affected node for
  // membership events, 0 otherwise ---
  kFaultLinkDown = 40,   // a=link, b=end_a, c=end_b
  kFaultLinkUp = 41,     // a=link, b=end_a, c=end_b
  kFaultPartition = 42,  // a=partition ordinal, b=links cut
  kFaultHeal = 43,       // a=partition ordinal, b=links restored
  kFaultJoin = 44,       // actor=node
  kFaultLeave = 45,      // actor=node
  kFaultCrash = 46,      // actor=node
  kFaultRejoin = 47,     // actor=node
  kFaultBurstOn = 48,    // a=loss_good_ppm, b=loss_bad_ppm, x=p_gb, y=p_bg
  kFaultBurstOff = 49,   // (no extra fields)
  // --- srm data path: what the conformance fold (fault/conformance.h)
  // reads besides recovery; the recovery timeline skips both ---
  kSrmDataSend = 50,  // y=payload digest
  kSrmDataHear = 51,  // (no extra fields)
};

// A traced event: timestamp, actor, and five integer + two double slots
// whose meaning depends on the type (see the schema table in trace.cpp and
// the per-type comments above).
struct Event {
  EventType type = EventType::kSimSchedule;
  double t = 0.0;            // virtual time
  std::uint64_t actor = 0;   // node id (sim/net) or member SourceId (srm)
  std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0;
  double x = 0.0, y = 0.0;

  friend bool operator==(const Event&, const Event&) = default;
};

// Schema entry for one EventType: its category, wire name, and the JSONL
// field name of each used slot (nullptr = slot unused by this type).
struct EventSpec {
  EventType type;
  Category category;
  const char* name;
  const char* a;
  const char* b;
  const char* c;
  const char* d;
  const char* e;
  const char* x;
  const char* y;
};

// Schema lookup; spec_of throws std::out_of_range for unknown types,
// spec_by_name returns nullptr for unknown names.
const EventSpec& spec_of(EventType type);
const EventSpec* spec_by_name(const std::string& name);
// All specs, for documentation generators and exhaustive tests.
const std::vector<EventSpec>& all_specs();

Category category_of(EventType type);

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

// Receives every emitted event that passes the mask.  Sinks are not
// thread-safe: one Tracer (and everything it instruments) must live on one
// thread, which is exactly the ReplicationRunner isolation model.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& event) = 0;
  virtual void flush() {}
};

// In-memory capture, for tests and for feeding RecoveryTimeline directly.
class VectorSink final : public Sink {
 public:
  void on_event(const Event& event) override { events_.push_back(event); }
  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

// Fans one event stream out to several sinks, each receiving the
// categories of its own mask (e.g. a JSONL file of what --trace-mask names
// plus an in-memory srm and fault capture feeding the checkers).  Added
// sinks are not owned and must outlive the tee.
class TeeSink final : public Sink {
 public:
  void add(Sink* sink, std::uint32_t mask = kMaskAll);
  void on_event(const Event& event) override {
    for (const Branch& b : branches_) {
      if (b.mask == kMaskAll ||
          (b.mask & static_cast<std::uint32_t>(category_of(event.type))) !=
              0) {
        b.sink->on_event(event);
      }
    }
  }
  void flush() override {
    for (const Branch& b : branches_) b.sink->flush();
  }

 private:
  struct Branch {
    Sink* sink;
    std::uint32_t mask;
  };
  std::vector<Branch> branches_;
};

// JSON Lines backend: one object per line, e.g.
//   {"t":3.25,"cat":"srm","ev":"req_send","actor":4,"src":0,"page_c":0,
//    "page_n":0,"seq":7,"ttl":255,"escalated":0}
// Only slots the type's schema names are emitted.  read_jsonl() parses this
// exact format back into Events.
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  void on_event(const Event& event) override;
  void flush() override;

  // Renders one event as a single JSONL line (no trailing newline).
  static std::string to_line(const Event& event);

 private:
  std::ostream* out_;
};

// Compact binary backend: an 8-byte header ("SRMTRC" + version + pad), then
// one fixed-width 74-byte little-endian record per event.  ~4x smaller than
// JSONL and trivially seekable; read_binary() is its inverse.
class BinarySink final : public Sink {
 public:
  explicit BinarySink(std::ostream& out);
  void on_event(const Event& event) override;
  void flush() override;

 private:
  std::ostream* out_;
};

// File readers.  Both throw std::runtime_error on malformed input and
// ignore blank lines (JSONL).  Events come back in file order.
std::vector<Event> read_jsonl(std::istream& in);
std::vector<Event> read_binary(std::istream& in);

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

// The per-world trace hub: a category bitmask plus an optional sink.
// Instrumented components keep `Tracer* tracer_` (never null; see null())
// and guard each site with
//
//   if (tracer_->wants(Category::kSrm)) { ...build Event, tracer_->emit... }
//
// wants() is a single relaxed atomic load + bit test, so with tracing
// compiled in but disabled the hot paths pay one predictable branch
// (guarded by the micro_kernel regression bound; see EXPERIMENTS.md).
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The shared always-disabled tracer components point at by default.  Its
  // mask is permanently zero; set_mask/set_sink on it are forbidden.
  static Tracer& null();

  bool wants(Category c) const {
    return (mask_.load(std::memory_order_relaxed) &
            static_cast<std::uint32_t>(c)) != 0;
  }
  std::uint32_t mask() const { return mask_.load(std::memory_order_relaxed); }

  // Enables the categories in `mask`.  Events only flow while a sink is
  // attached; set_mask on a sinkless tracer is allowed but emits nothing.
  void set_mask(std::uint32_t mask);
  // Attaches `sink` (not owned; pass nullptr to detach).
  void set_sink(Sink* sink);
  Sink* sink() const { return sink_; }

  // Forwards to the sink.  Callers must have passed a wants() check; emit
  // itself re-checks only the sink, not the mask.
  void emit(const Event& event) {
    if (sink_ != nullptr) sink_->on_event(event);
  }

 private:
  std::atomic<std::uint32_t> mask_{kMaskNone};
  Sink* sink_ = nullptr;
};

}  // namespace srm::trace
