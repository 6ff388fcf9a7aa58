// SrmAgent: one session member's instantiation of the SRM framework
// (Sec. III).  Composes loss detection, the request/repair timer state
// machines with suppression and backoff, session messaging with distance
// estimation, adaptive timer tuning, local recovery scoping, and the
// token-bucket send policy, on top of the simulated IP multicast network.
// A member belongs to exactly one multicast group, the session's: every
// data, request, repair, session and page-state packet it sends goes there.
//
// The Sec. III-B timer algebra, verbatim: a member detecting a loss draws
// its request timer uniformly from
//     [ C1*d_S , (C1+C2)*d_S ]        d_S = est. distance to the source,
// backs off multiplicatively (SrmConfig::backoff_factor; x3 per Sec. VII-A)
// each time it sends or is suppressed, and ignores same-iteration duplicate
// requests (the footnote-1 heuristic).  A member holding the data draws its
// repair timer from
//     [ D1*d_A , (D1+D2)*d_A ]        d_A = est. distance to the requestor,
// cancels it on hearing another member's repair, and holds down further
// repair timers for kHolddownMultiplier*d_S (3*d_S in the paper) after
// sending or receiving a repair for the ADU.
//
// The agent is deliberately application-agnostic (the ALF framework): the
// application supplies payload bytes, a page structure over the namespace,
// send priorities, and receives delivery callbacks.  src/wb builds the
// whiteboard on this API.
//
// Every protocol decision is observable as srm-category trace events
// (loss / req_* / rep_* / recovered / adapt_* / scope_escalate); attach a
// tracer with set_tracer() and see trace/timeline.h for the per-loss
// recovery-story analyzer built on them.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/event_queue.h"
#include "sim/timer.h"
#include "transport/transport.h"
#include "srm/adaptive.h"
#include "srm/config.h"
#include "srm/member_index.h"
#include "srm/messages.h"
#include "srm/metrics.h"
#include "srm/names.h"
#include "srm/rate_limiter.h"
#include "srm/session.h"
#include "util/rng.h"

namespace srm {

// Maps persistent application-level Source-IDs to the network nodes the
// members currently run on.  In a real deployment this indirection is why
// Source-IDs survive re-joins from different hosts; in the simulator it also
// lets agents ask the routing oracle for distances when configured to.
//
// The directory also owns the session's dense member index (see
// srm/member_index.h): every agent's per-peer vectors share one interning
// table, so a Source-ID resolves to the same small int everywhere.
class MemberDirectory {
 public:
  void bind(SourceId id, net::NodeId node);
  void unbind(SourceId id);
  net::NodeId node_of(SourceId id) const;        // throws if unknown
  std::optional<SourceId> source_at(net::NodeId node) const;
  std::vector<SourceId> members() const;

  MemberIndex& index() { return index_; }
  const MemberIndex& index() const { return index_; }

  // Bumped on every bind/unbind; per-agent caches keyed by the dense index
  // (e.g. the oracle-distance cache) revalidate against it.
  std::uint64_t version() const { return version_; }

 private:
  std::unordered_map<SourceId, net::NodeId> to_node_;
  std::unordered_map<net::NodeId, SourceId> to_source_;
  MemberIndex index_;
  std::uint64_t version_ = 0;
};

class SrmAgent : public net::PacketSink {
 public:
  // Safety valve for pathological scenarios: a request that has backed off
  // this many times without a repair abandons recovery of that ADU.  An
  // abandoned ADU is not re-requested when further requests for it are
  // overheard (only actual arrival of the data clears the abandonment).
  static constexpr int kMaxRequestBackoffs = 16;

  // What one message may reveal (wire input is untrusted): a name or state
  // entry this many seqs or more past the end of a stream's ADU table is
  // ignored, and counted in AgentMetrics::far_names_ignored.  So one
  // datagram detects at most this many losses and grows a table as much.
  static constexpr SeqNo kMaxSeqReveal = SeqNo{1} << 16;

  // Callbacks into the application.
  struct AppHooks {
    // Invoked on every newly delivered ADU (original or via repair).
    std::function<void(const DataName&, const Payload&, bool via_repair)>
        on_data;
    // Invoked when a loss is first detected (before the request timer is
    // set).  perfbench lists each member's distinct losses with it.
    std::function<void(const DataName&)> on_loss_detected;
    // Invoked for every repair request heard from another member (after the
    // agent's own processing).  The FEC layer (srm/fec) treats requests for
    // a stream this member originates as loss evidence feeding the adaptive
    // parity budget.
    std::function<void(const DataName&, SourceId requestor)> on_request_heard;
    // Invoked for every session message received (after the agent's own
    // processing).  Used by the hierarchical session-message extension to
    // learn which peers are "local" (Sec. IX-A).
    std::function<void(const SessionMessage&, const net::DeliveryInfo&)>
        on_session_message;
    // Invoked when a page-list reply arrives (response to
    // request_page_state(nullopt)); reports every page the replier knew.
    std::function<void(const std::vector<PageId>&)> on_page_list;
  };

  // The agent speaks only through `transport` (ARCHITECTURE.md §13), which
  // must outlive it: the simulator's net::MulticastNetwork or a
  // transport::UdpTransport.
  SrmAgent(transport::Transport& transport, MemberDirectory& directory,
           net::NodeId node, SourceId id, net::GroupId group,
           const SrmConfig& config, util::Rng rng);
  ~SrmAgent() override;

  SrmAgent(const SrmAgent&) = delete;
  SrmAgent& operator=(const SrmAgent&) = delete;

  // Joins the multicast group, binds the directory entry, and (if enabled)
  // starts the session-message schedule.
  void start();
  // Leaves the group and cancels all timers (a member departing; SRM does
  // not distinguish this from a partition, Sec. III-D).
  void stop();

  // --- application-facing API ---------------------------------------------

  // Multicasts a new ADU on `page` with the next sequence number; returns
  // its name.  The data is retained for answering future repair requests.
  DataName send_data(const PageId& page, Payload payload);

  // The page this member is "currently viewing"; session messages report
  // state for this page only (Sec. III-A), and the send queue gives repairs
  // for it priority over old pages.
  void set_current_page(const PageId& page) { current_page_ = page; }
  const PageId& current_page() const { return current_page_; }

  void set_app_hooks(AppHooks hooks) { hooks_ = std::move(hooks); }
  // Current hooks; extensions capture these to chain rather than replace.
  const AppHooks& app_hooks() const { return hooks_; }

  bool has_data(const DataName& name) const;
  const Payload* find_data(const DataName& name) const;

  // Installs an ADU into the local store without transmitting or triggering
  // loss detection.  Used by simulation setup to model state acquired before
  // the simulated window (and by tests).  Seeded sequence numbers must be
  // contiguous from 0 per stream or the gap will be requested; like a name
  // heard on the wire, one kMaxSeqReveal or more past the stream's table is
  // ignored.
  void seed_data(const DataName& name, Payload payload);

  // Supplies an ADU recovered out-of-band (e.g. reconstructed from parity
  // ADUs, see srm/fec/session.h): cancels any pending repair request for it,
  // stores it so this member can answer others' requests, and delivers it
  // to the application.  Counted as a recovery when a request was pending.
  void supply_data(const DataName& name, Payload payload);

  // Highest sequence number known to exist on a stream (from data, repairs,
  // requests or session messages); nullopt if the stream is unknown.
  std::optional<SeqNo> advertised_max(const StreamKey& stream) const;

  // --- distances ----------------------------------------------------------

  // One-way distance estimate to another member, per the configured
  // DistanceMode.  Falls back to config.default_distance when estimating
  // and the peer has not completed a session-message exchange.
  double distance_to(SourceId peer) const;
  const DistanceEstimator& estimator() const { return estimator_; }

  // --- scoping (local recovery, Sec. VII-B) --------------------------------

  // Policy deciding the TTL of requests this agent originates.  Default:
  // global scope (kMaxTtl).  The experiment harness installs loss-
  // neighborhood-aware policies here.  A scoped request still unanswered
  // after two own sends is re-sent globally (kEscalateScopeAfter, the
  // srm/scope_escalate event); with config.local_recovery enabled, a scoped
  // request is answered by a two-step repair (Sec. VII-B.3).
  using TtlPolicy = std::function<int(const DataName&)>;
  void set_request_ttl_policy(TtlPolicy policy) {
    request_ttl_policy_ = std::move(policy);
  }
  // When set, requests/repairs are sent admin-scoped (Sec. VII-B.1).
  void set_use_admin_scope(bool on) { use_admin_scope_ = on; }

  // --- introspection -------------------------------------------------------

  SourceId id() const { return id_; }
  net::NodeId node() const { return node_; }
  net::GroupId group() const { return group_; }
  sim::EventQueue& queue() { return transport_->queue(); }
  const sim::EventQueue& queue() const { return transport_->queue(); }
  const SrmConfig& config() const { return config_; }
  AgentMetrics& metrics() { return metrics_; }
  const AgentMetrics& metrics() const { return metrics_; }

  // Current (possibly adapted) timer parameters.
  double c1() const { return request_tuner_.start(); }
  double c2() const { return request_tuner_.width(); }
  double d1() const { return repair_tuner_.start(); }
  double d2() const { return repair_tuner_.width(); }
  const AdaptiveTuner& request_tuner() const { return request_tuner_; }
  const AdaptiveTuner& repair_tuner() const { return repair_tuner_; }

  // True while a request timer is pending for `name`.
  bool request_pending(const DataName& name) const;
  bool repair_pending(const DataName& name) const;

  // Structured tracing (srm category: the protocol events of Sec. III-B /
  // VII — loss, timer set/fire/backoff, request/repair send/hear/suppress,
  // adaptive updates, scope escalations).  Never pass nullptr;
  // &trace::Tracer::null() detaches.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

  // Forces a session message out immediately (tests / warm-up / the
  // hierarchical extension).  `ttl` limits its scope; by default it reaches
  // the whole group.  A representative's global report (Sec. IX-A) also
  // carries per-area `digests`.  The message and its tables are built for
  // this send at their exact size and freed with its last delivery.
  void send_session_message(int ttl = net::kMaxTtl,
                            SessionMessage::AreaDigests digests = {});

  // Page-state recovery (Sec. III-A).  With a page id, asks the group for
  // that page's sequence-number state (the reply reveals the page's streams
  // and triggers normal data recovery for anything missing).  With nullopt,
  // asks for the list of pages members know about (late-join browsing);
  // replies arrive via AppHooks::on_page_list and known_pages().
  void request_page_state(std::optional<PageId> page);

  // Pages this member has seen any evidence of (data, requests, session
  // reports or page replies).
  std::vector<PageId> known_pages() const;

  // net::PacketSink:
  void on_receive(const net::Packet& packet,
                  const net::DeliveryInfo& info) override;

 private:
  // ---- request (loss recovery) state, one per missing ADU ----
  struct RequestState {
    RequestState(sim::EventQueue& queue, std::function<void()> on_expire)
        : timer(queue, std::move(on_expire)) {}
    sim::Timer timer;
    double dist = 1.0;             // d_S at detection time
    int backoffs = 0;              // backoff iteration i
    sim::Time detect_time = 0.0;   // loss detected and first timer set
    sim::Time ignore_backoff_until = 0.0;
    bool we_sent_request = false;
    bool delay_recorded = false;   // req_delay recorded once per loss
    int our_request_ttl = net::kMaxTtl;  // TTL used on our own request
  };

  // ---- repair (response) state, one per ADU we owe an answer for ----
  struct RepairState {
    std::optional<sim::Timer> timer;  // built on the first request heard
    double dist = 1.0;              // d_A to the requestor
    // rep_delay is normalized by the RTT to the original source of the
    // data (Sec. VII-A), which keeps the delay signal meaningful even for
    // holders far from the requestor.
    double dist_to_source = 1.0;
    SourceId requestor = kInvalidSource;
    int request_ttl = net::kMaxTtl;   // initial TTL of the request
    net::Scope request_scope = net::Scope::kGlobal;  // repair reuses it
    sim::Time timer_set_time = 0.0;
    bool delay_recorded = false;
    sim::Time holddown_until = 0.0;   // ignore requests until then
  };

  // ---- the ADU table: seqs are dense per stream (Sec. III-A) ----
  // A stream's per-ADU state is a vector indexed by seq.  Request and repair
  // state live behind pointers, so a slot stays 40 bytes and a handler's
  // RequestState& survives the vector growing (an app hook may supply data).
  struct Slot {
    PayloadPtr payload;                      // the ADU, once held
    std::unique_ptr<RequestState> request;   // while recovering it
    std::unique_ptr<RepairState> repair;     // once asked for it by a peer
    bool held = false;           // in the store (a held payload may be null)
    bool abandoned = false;      // recovery given up; cleared on arrival
    bool step_two_sent = false;  // two-step repair re-multicast (at most once)
    RepairState& repair_state() {
      if (!repair) repair = std::make_unique<RepairState>();
      return *repair;
    }
  };
  struct Stream {
    SeqNo advertised_max = 0;   // highest seq known to exist
    bool any_known = false;     // false until first evidence of the stream
    bool page_noted = false;    // its page is in known_pages_
    std::vector<Slot> slots;    // by seq, up to the highest seq touched
  };

  // ---- adaptive-algorithm period accounting (Sec. VII-A) ----
  struct Period {
    DataName name;
    std::size_t observed = 0;   // requests (repairs) seen, incl. our own
    bool we_sent = false;
  };

  // admit() sizes the table of `key` to hold `seq`, or is nullptr when `seq`
  // is too far (kMaxSeqReveal).  find_slot() is nullptr past the table.
  Stream* admit(const StreamKey& key, SeqNo seq);
  const Slot* find_slot(const DataName& name) const;

  // message handlers; each takes the ADU's stream, already admitted
  void handle_data(Stream& s, const DataName& name, const PayloadPtr& payload,
                   bool via_repair);
  void handle_request(const RequestMessage& msg, net::Scope scope, int hops);
  void handle_repair(const RepairMessage& msg, int hops);
  void handle_session(const SessionMessage& msg);
  void handle_page_request(const PageRequestMessage& msg);
  void handle_page_reply(const PageReplyMessage& msg);

  // loss recovery internals
  void note_stream_advance(Stream& s, const StreamKey& stream, SeqNo seen_seq);
  void note_state_report(const SessionMessage::StateReport& state);
  void detect_loss(Stream& s, const DataName& name, bool via_request);
  void schedule_request_timer(RequestState& state, const DataName& name);
  void on_request_timer_expired(const DataName& name);
  void backoff_request(const DataName& name, RequestState& state);
  // Data that came by repair or out of band: ends a pending recovery and
  // is delivered if it is new.
  void complete_recovery(Stream& s, const DataName& name,
                         const PayloadPtr& payload);

  // repair internals
  void maybe_schedule_repair(RepairState& rs, const DataName& name,
                             const RequestMessage& msg, net::Scope scope);
  void on_repair_timer_expired(const DataName& name);
  double holddown_distance(const DataName& name, SourceId requestor) const;

  // period bookkeeping, for requests or for repairs
  void open_period(std::optional<Period>& period, AdaptiveTuner& tuner,
                   std::uint64_t& dups_heard, trace::EventType adapted,
                   const DataName& name);
  static void note_observed(std::optional<Period>& period,
                            const DataName& name, bool ours);
  void record_delay(bool& recorded, sim::Time timer_set_time, double dist,
                    util::Samples& samples, AdaptiveTuner& tuner);

  // transmit paths (respect the rate limiter and priorities)
  enum class Priority { kCurrentPageRecovery, kNewData, kOldPageRecovery };
  net::Packet packet_for(net::MessagePtr payload, int ttl = net::kMaxTtl,
                         net::Scope scope = net::Scope::kGlobal) const;
  net::Scope own_scope() const {  // admin scope (Sec. VII-B.1) if set
    return use_admin_scope_ ? net::Scope::kAdmin : net::Scope::kGlobal;
  }
  void transmit(net::Packet packet, Priority priority);
  void drain_send_queue();
  Priority recovery_priority(const DataName& name) const;

  // The state report for `page`, at its exact size.
  SessionMessage::StateReport page_state(const PageId& page) const;
  void schedule_next_session_message();

  // Emits one srm-category trace event naming an ADU (slot convention:
  // a=src, b=page_c, c=page_n, d=seq; `e`, `x`, `y` per the schema table).
  // The disabled path is a single relaxed-atomic test.
  void trace_adu(trace::EventType type, const DataName& name,
                 std::uint64_t e = 0, double x = 0.0, double y = 0.0) {
    if (!tracer_->wants(trace::Category::kSrm)) return;
    trace::Event ev;
    ev.type = type;
    ev.t = transport_->queue().now();
    ev.actor = id_;
    ev.a = name.source;
    ev.b = name.page.creator;
    ev.c = name.page.number;
    ev.d = name.seq;
    ev.e = e;
    ev.x = x;
    ev.y = y;
    tracer_->emit(ev);
  }

  // core wiring (transport_ must precede every member whose initializer
  // touches the transport's queue)
  transport::Transport* transport_;
  MemberDirectory* directory_;
  net::NodeId node_;
  SourceId id_;
  net::GroupId group_;
  SrmConfig config_;
  util::Rng rng_;
  sim::LocalClock clock_;

  // protocol state: every stream known, own ones included (node-based, so a
  // Stream& survives insertions).  An own stream's next seq is
  // advertised_max + 1, or 0 before the first send.
  std::unordered_map<StreamKey, Stream> streams_;
  std::size_t abandoned_count_ = 0;  // slots with `abandoned` set
  std::optional<Period> request_period_;
  std::optional<Period> repair_period_;
  PageId current_page_;

  // ---- page-state recovery (Sec. III-A) ----
  // Reply timers, keyed by the requested page; the list request uses the
  // sentinel PageId{kInvalidSource, 0}.
  static constexpr PageId kPageListKey{kInvalidSource, 0};
  std::unordered_map<PageId, std::unique_ptr<sim::Timer>> page_replies_;
  std::set<PageId> known_pages_;
  // A stream's page goes into known_pages_ on the stream's first advance
  // only: the set never shrinks, so later inserts would change nothing.
  void note_stream_page(Stream& s, const PageId& page) {
    if (s.page_noted) return;
    s.page_noted = true;
    known_pages_.insert(page);
  }
  void on_page_reply_timer(const PageId& key);

  // services
  DistanceEstimator estimator_;
  SessionScheduler session_scheduler_;
  AdaptiveTuner request_tuner_;
  AdaptiveTuner repair_tuner_;
  RateLimiter rate_limiter_;
  // Built on their first arm: flat session timers are off under the
  // hierarchy, and only a send the token bucket defers arms the queue timer.
  std::unique_ptr<sim::Timer> session_timer_;
  std::unique_ptr<sim::Timer> send_queue_timer_;

  // Request and repair freelists: each send recycles a message object once
  // the previous send's deliveries have all fired.  Session messages are
  // not pooled: a recycled one would keep a dead echo table per member
  // between reports.
  net::MessagePool<RequestMessage> request_pool_;
  net::MessagePool<RepairMessage> repair_pool_;
  // Oracle-mode distances by dense member index (< 0 = not yet resolved);
  // rebuilt whenever directory membership changes or the topology mutates
  // (link failures change the ground-truth distances).
  mutable std::vector<double> oracle_dist_;
  mutable std::uint64_t oracle_dist_version_ = 0;
  mutable std::uint64_t oracle_topo_version_ = 0;

  struct QueuedSend {
    net::Packet packet;
    Priority priority;
    std::uint64_t seq;  // FIFO within a priority band
  };
  // Built by the first send the rate limiter defers: an empty std::deque
  // still allocates about 570 B, and most members never queue a send.
  std::unique_ptr<std::deque<QueuedSend>> send_queue_;
  std::uint64_t send_seq_ = 0;

  trace::Tracer* tracer_ = &trace::Tracer::null();
  TtlPolicy request_ttl_policy_;
  bool use_admin_scope_ = false;
  bool started_ = false;

  AppHooks hooks_;
  AgentMetrics metrics_;
};

}  // namespace srm
