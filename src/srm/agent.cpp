#include "srm/agent.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace srm {

namespace {

// RTT used to normalize delays; distances can be zero (e.g. the data source
// itself), so normalization floors the denominator.
double rtt_of(double one_way_distance) {
  return std::max(2.0 * one_way_distance, 1e-9);
}

// What a send costs the token bucket.
double bytes_of(const net::Packet& packet) {
  return static_cast<double>(packet.payload ? packet.payload->size_bytes()
                                            : 0);
}

// Scope escalation (Sec. VII-B): when a locally-scoped request (TTL-limited
// or admin-scoped) has gone unanswered through this many own requests,
// later requests for that ADU are sent with global scope.  Two leaves room
// for the repair's three-hop round trip (request + repair timer + repair)
// before widening.
constexpr int kEscalateScopeAfter = 2;

}  // namespace

// ---------------------------------------------------------------------------
// MemberDirectory
// ---------------------------------------------------------------------------

void MemberDirectory::bind(SourceId id, net::NodeId node) {
  to_node_[id] = node;
  to_source_[node] = id;
  index_.intern(id);
  ++version_;
}

void MemberDirectory::unbind(SourceId id) {
  const auto it = to_node_.find(id);
  if (it == to_node_.end()) return;
  to_source_.erase(it->second);
  to_node_.erase(it);
  ++version_;  // the dense index entry survives (Source-IDs are persistent)
}

net::NodeId MemberDirectory::node_of(SourceId id) const {
  const auto it = to_node_.find(id);
  if (it == to_node_.end()) {
    throw std::out_of_range("MemberDirectory::node_of: unknown source");
  }
  return it->second;
}

std::optional<SourceId> MemberDirectory::source_at(net::NodeId node) const {
  const auto it = to_source_.find(node);
  if (it == to_source_.end()) return std::nullopt;
  return it->second;
}

std::vector<SourceId> MemberDirectory::members() const {
  std::vector<SourceId> out;
  out.reserve(to_node_.size());
  for (const auto& [id, node] : to_node_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// SrmAgent: construction / lifecycle
// ---------------------------------------------------------------------------

SrmAgent::SrmAgent(transport::Transport& transport, MemberDirectory& directory,
                   net::NodeId node, SourceId id, net::GroupId group,
                   const SrmConfig& config, util::Rng rng)
    : transport_(&transport),
      directory_(&directory),
      node_(node),
      id_(id),
      group_(group),
      config_(config),
      rng_(std::move(rng)),
      // Per-host clock skew: distance estimation must not depend on
      // synchronized clocks, so every host gets a different offset.
      clock_(transport_->queue(), rng_.uniform(0.0, 1000.0)),
      estimator_(clock_),
      session_scheduler_(config.session, rng_.fork()),
      request_tuner_(config.adaptive, config.timers.c1, config.timers.c2),
      repair_tuner_(config.adaptive, config.timers.d1, config.timers.d2),
      rate_limiter_(config.rate_limit, transport_->queue().now()) {
  request_ttl_policy_ = [](const DataName&) { return net::kMaxTtl; };
}

SrmAgent::~SrmAgent() {
  if (started_) stop();
}

void SrmAgent::start() {
  if (started_) return;
  started_ = true;
  directory_->bind(id_, node_);
  transport_->attach(node_, this);
  transport_->join(group_, node_);
  if (config_.session.enabled) schedule_next_session_message();
}

void SrmAgent::stop() {
  if (!started_) return;
  started_ = false;
  if (session_timer_) session_timer_->cancel();
  if (send_queue_timer_) send_queue_timer_->cancel();
  for (auto& [key, s] : streams_) {
    for (Slot& slot : s.slots) {
      if (slot.request) slot.request->timer.cancel();
      if (slot.repair && slot.repair->timer) slot.repair->timer->cancel();
    }
  }
  for (auto& [key, timer] : page_replies_) timer->cancel();
  transport_->leave(group_, node_);
  transport_->detach(node_);
  directory_->unbind(id_);
}

// ---------------------------------------------------------------------------
// Application-facing API
// ---------------------------------------------------------------------------

DataName SrmAgent::send_data(const PageId& page, Payload payload) {
  const Stream& own = streams_[StreamKey{id_, page}];
  const DataName name{id_, page, own.any_known ? own.advertised_max + 1 : 0};
  seed_data(name, std::move(payload));
  ++metrics_.data_sent;
  const PayloadPtr& stored = own.slots[name.seq].payload;
  if (tracer_->wants(trace::Category::kSrm)) {
    trace_adu(trace::EventType::kSrmDataSend, name, 0, 0.0,
              payload_digest(stored));
  }
  transmit(packet_for(std::make_shared<DataMessage>(name, stored)),
           Priority::kNewData);
  return name;
}

void SrmAgent::seed_data(const DataName& name, Payload payload) {
  Stream* s = admit(stream_of(name), name.seq);
  if (s == nullptr) return;
  s->slots[name.seq].held = true;
  s->slots[name.seq].payload =
      std::make_shared<const Payload>(std::move(payload));
  s->any_known = true;
  s->advertised_max = std::max(s->advertised_max, name.seq);
  note_stream_page(*s, name.page);
}

void SrmAgent::supply_data(const DataName& name, Payload payload) {
  // FEC reconstructs names from parity frames, so they are wire input too.
  if (Stream* s = admit(stream_of(name), name.seq)) {
    complete_recovery(*s, name,
                      std::make_shared<const Payload>(std::move(payload)));
  }
}

bool SrmAgent::has_data(const DataName& name) const {
  const Slot* slot = find_slot(name);
  return slot != nullptr && slot->held;
}

const Payload* SrmAgent::find_data(const DataName& name) const {
  const Slot* slot = find_slot(name);
  return slot != nullptr && slot->held ? slot->payload.get() : nullptr;
}

std::optional<SeqNo> SrmAgent::advertised_max(const StreamKey& stream) const {
  const auto it = streams_.find(stream);
  if (it == streams_.end() || !it->second.any_known) return std::nullopt;
  return it->second.advertised_max;
}

double SrmAgent::distance_to(SourceId peer) const {
  if (peer == id_) return 0.0;
  if (config_.distance_mode == DistanceMode::kOracle) {
    const std::uint32_t idx = directory_->index().find(peer);
    if (idx == MemberIndex::kNoIndex) {
      return config_.default_distance;  // member never bound
    }
    // Dense per-peer cache: resolved distances are stable until membership
    // changes (bind/unbind bumps the directory version) or the topology
    // mutates (link dynamics bump the topology version).
    if (oracle_dist_version_ != directory_->version() ||
        oracle_topo_version_ != transport_->topology_version()) {
      oracle_dist_.clear();
      oracle_dist_version_ = directory_->version();
      oracle_topo_version_ = transport_->topology_version();
    }
    if (idx >= oracle_dist_.size()) {
      oracle_dist_.resize(directory_->index().size(), -1.0);
    }
    double& cached = oracle_dist_[idx];
    if (cached < 0.0) {
      try {
        // try_distance: a peer partitioned away reads as infinitely far,
        // which is routine under fault injection, not an error.
        const double d = transport_->try_distance(node_, directory_->node_of(peer));
        cached = std::isinf(d) ? config_.default_distance : d;
      } catch (const std::out_of_range&) {
        cached = config_.default_distance;  // member no longer bound
      }
    }
    return cached;
  }
  const auto est = estimator_.distance(peer);
  return est.value_or(config_.default_distance);
}

bool SrmAgent::request_pending(const DataName& name) const {
  const Slot* slot = find_slot(name);
  return slot != nullptr && slot->request && slot->request->timer.pending();
}

bool SrmAgent::repair_pending(const DataName& name) const {
  const Slot* slot = find_slot(name);
  return slot != nullptr && slot->repair && slot->repair->timer &&
         slot->repair->timer->pending();
}

// ---------------------------------------------------------------------------
// The ADU table
// ---------------------------------------------------------------------------

SrmAgent::Stream* SrmAgent::admit(const StreamKey& key, SeqNo seq) {
  Stream& s = streams_[key];
  if (seq >= s.slots.size() + kMaxSeqReveal) {
    ++metrics_.far_names_ignored;
    return nullptr;
  }
  if (seq >= s.slots.size()) s.slots.resize(seq + 1);
  return &s;
}

const SrmAgent::Slot* SrmAgent::find_slot(const DataName& name) const {
  const auto it = streams_.find(stream_of(name));
  if (it == streams_.end() || name.seq >= it->second.slots.size()) {
    return nullptr;
  }
  return &it->second.slots[name.seq];
}

// ---------------------------------------------------------------------------
// Receive dispatch
// ---------------------------------------------------------------------------

void SrmAgent::on_receive(const net::Packet& packet,
                          const net::DeliveryInfo& info) {
  const net::Message* msg = packet.payload.get();
  if (msg == nullptr) return;
  // One switch on the message's kind (srm/messages.h), as the wire codec
  // classifies it; any other kind is not an SRM payload and is ignored.
  switch (msg->trace_kind()) {
    case DataMessage::kKind: {
      const auto& data = static_cast<const DataMessage&>(*msg);
      if (Stream* s = admit(stream_of(data.name()), data.name().seq)) {
        trace_adu(trace::EventType::kSrmDataHear, data.name());
        handle_data(*s, data.name(), data.payload(), /*via_repair=*/false);
      }
      break;
    }
    case RequestMessage::kKind:
      handle_request(static_cast<const RequestMessage&>(*msg), packet.scope,
                     info.hops);
      break;
    case RepairMessage::kKind:
      handle_repair(static_cast<const RepairMessage&>(*msg), info.hops);
      break;
    case SessionMessage::kKind: {
      const auto& sess = static_cast<const SessionMessage&>(*msg);
      handle_session(sess);
      if (hooks_.on_session_message) hooks_.on_session_message(sess, info);
      break;
    }
    case PageRequestMessage::kKind:
      handle_page_request(static_cast<const PageRequestMessage&>(*msg));
      break;
    case PageReplyMessage::kKind:
      handle_page_reply(static_cast<const PageReplyMessage&>(*msg));
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Page-state recovery (Sec. III-A)
// ---------------------------------------------------------------------------

void SrmAgent::request_page_state(std::optional<PageId> page) {
  transmit(packet_for(std::make_shared<PageRequestMessage>(id_, page),
                      net::kMaxTtl, own_scope()),
           page && *page == current_page_ ? Priority::kCurrentPageRecovery
                                          : Priority::kOldPageRecovery);
}

std::vector<PageId> SrmAgent::known_pages() const {
  return std::vector<PageId>(known_pages_.begin(), known_pages_.end());
}

SessionMessage::StateReport SrmAgent::page_state(const PageId& page) const {
  const auto on_page = [&page](const auto& entry) {
    return entry.first.page == page && entry.second.any_known;
  };
  SessionMessage::StateReport report;
  report.reserve(static_cast<std::size_t>(
      std::count_if(streams_.begin(), streams_.end(), on_page)));
  for (const auto& entry : streams_) {
    if (on_page(entry)) report[entry.first] = entry.second.advertised_max;
  }
  return report;
}

void SrmAgent::handle_page_request(const PageRequestMessage& msg) {
  if (msg.requestor() == id_) return;
  // Only members actually holding relevant state volunteer an answer.
  const PageId key = msg.page() ? *msg.page() : kPageListKey;
  if (msg.page()) {
    if (page_state(*msg.page()).empty()) return;
  } else if (known_pages_.empty()) {
    return;
  }
  std::unique_ptr<sim::Timer>& timer = page_replies_[key];
  if (timer && timer->pending()) return;  // scheduled
  if (!timer) {
    timer = std::make_unique<sim::Timer>(
        transport_->queue(), [this, key] { on_page_reply_timer(key); });
  }
  // Same timer discipline as data repairs: randomized, distance-scaled,
  // suppressible (Sec. III-A: "almost identical to the repair
  // request/response protocol").
  const double d = distance_to(msg.requestor());
  timer->schedule_in(rng_.uniform(d1() * d, (d1() + d2()) * d));
}

void SrmAgent::on_page_reply_timer(const PageId& key) {
  const bool is_list = key == kPageListKey;
  auto reply = std::make_shared<PageReplyMessage>(
      id_, is_list ? std::optional<PageId>{} : std::optional<PageId>{key},
      is_list ? SessionMessage::StateReport{} : page_state(key),
      is_list ? known_pages() : std::vector<PageId>{});
  transmit(packet_for(std::move(reply), net::kMaxTtl, own_scope()),
           Priority::kOldPageRecovery);
}

void SrmAgent::handle_page_reply(const PageReplyMessage& msg) {
  // Suppression: someone else answered this page; cancel our own reply.
  const PageId key = msg.page() ? *msg.page() : kPageListKey;
  if (const auto it = page_replies_.find(key); it != page_replies_.end()) {
    it->second->cancel();
  }
  // The state report reveals the page's streams; normal loss detection and
  // recovery take over from here.
  note_state_report(msg.state());
  if (!msg.page()) {
    known_pages_.insert(msg.known_pages().begin(), msg.known_pages().end());
    if (hooks_.on_page_list) hooks_.on_page_list(msg.known_pages());
  }
}

// ---------------------------------------------------------------------------
// Data path and loss detection
// ---------------------------------------------------------------------------

void SrmAgent::handle_data(Stream& s, const DataName& name,
                           const PayloadPtr& payload, bool via_repair) {
  Slot& slot = s.slots[name.seq];
  const bool is_new = !slot.held;
  if (is_new) {
    slot.held = true;
    slot.payload = payload;
    if (slot.abandoned) {  // the data showed up after all
      slot.abandoned = false;
      --abandoned_count_;
    }
  }
  note_stream_advance(s, stream_of(name), name.seq);
  if (is_new && hooks_.on_data) {
    static const Payload kEmpty;
    hooks_.on_data(name, payload ? *payload : kEmpty, via_repair);
  }
}

void SrmAgent::note_stream_advance(Stream& s, const StreamKey& stream,
                                   SeqNo seen_seq) {
  note_stream_page(s, stream.page);
  if (stream.source == id_) return;  // we cannot miss our own data
  SeqNo scan_from = 0;
  if (s.any_known) {
    if (seen_seq <= s.advertised_max) return;  // nothing new revealed
    scan_from = s.advertised_max + 1;
  }
  s.any_known = true;
  s.advertised_max = std::max(s.advertised_max, seen_seq);
  // Every sequence number in [scan_from, seen_seq] is now known to exist;
  // any of them we neither hold nor are already recovering is a loss.
  // (Index afresh each time: a loss hook may grow the table.)
  for (SeqNo q = scan_from; q <= seen_seq; ++q) {
    if (s.slots[q].held || s.slots[q].request) continue;
    detect_loss(s, DataName{stream.source, stream.page, q},
                /*via_request=*/false);
  }
}

void SrmAgent::note_state_report(const SessionMessage::StateReport& state) {
  for (const auto& [stream, max_seq] : state) {
    if (Stream* s = admit(stream, max_seq)) {
      note_stream_advance(*s, stream, max_seq);
    }
  }
}

void SrmAgent::detect_loss(Stream& s, const DataName& name,
                           bool via_request) {
  ++metrics_.losses_detected;
  if (hooks_.on_loss_detected) hooks_.on_loss_detected(name);
  const sim::Time now = transport_->queue().now();

  auto owned = std::make_unique<RequestState>(
      transport_->queue(), [this, name] { on_request_timer_expired(name); });
  RequestState& state = *owned;
  state.dist = distance_to(name.source);
  trace_adu(trace::EventType::kSrmLoss, name, via_request ? 1 : 0, 0.0,
            state.dist);
  state.detect_time = now;

  open_period(request_period_, request_tuner_, metrics_.dup_requests_heard,
              trace::EventType::kSrmAdaptReq, name);

  if (via_request) {
    // We learned of the loss from someone else's request: behave as if our
    // own (never-set) timer was suppressed once - schedule from the
    // backed-off interval and wait for the repair (Sec. III-B).
    state.backoffs = 1;
    state.delay_recorded = true;  // no timer of ours preceded the request
    note_observed(request_period_, name, /*ours=*/false);
  }

  s.slots[name.seq].request = std::move(owned);
  schedule_request_timer(state, name);
  if (via_request) {
    state.ignore_backoff_until =
        now + (state.timer.expiry_time() - now) / 2.0;
  }
}

void SrmAgent::schedule_request_timer(RequestState& state,
                                      const DataName& name) {
  const double b = std::pow(config_.backoff_factor, state.backoffs);
  const double lo = b * c1() * state.dist;
  const double hi = b * (c1() + c2()) * state.dist;
  const double delay = rng_.uniform(lo, hi);
  state.timer.schedule_in(delay);
  trace_adu(trace::EventType::kSrmReqTimerSet, name,
            static_cast<std::uint64_t>(state.backoffs), delay, state.dist);
}

void SrmAgent::on_request_timer_expired(const DataName& name) {
  const Slot* slot = find_slot(name);
  if (slot == nullptr || !slot->request) return;
  RequestState& st = *slot->request;
  const sim::Time now = transport_->queue().now();
  trace_adu(trace::EventType::kSrmReqFire, name,
            static_cast<std::uint64_t>(st.backoffs));

  record_delay(st.delay_recorded, st.detect_time, st.dist,
               metrics_.request_delay_rtt, request_tuner_);

  // Scope escalation (Sec. VII-B): once enough of our scoped requests have
  // gone unanswered, widen to global scope.  backoffs counts prior own
  // sends (and initial suppressions), so >= threshold means at least that
  // many unanswered requests preceded this one.
  const bool escalate =
      st.we_sent_request && st.backoffs >= kEscalateScopeAfter;

  // Send the request.
  ++metrics_.requests_sent;
  st.we_sent_request = true;
  note_observed(request_period_, name, /*ours=*/true);
  if (config_.adaptive.enabled) request_tuner_.on_sent();
  const int ttl = escalate ? net::kMaxTtl : request_ttl_policy_(name);
  st.our_request_ttl = ttl;
  if (escalate) {
    trace_adu(trace::EventType::kSrmScopeEscalate, name,
              static_cast<std::uint64_t>(ttl));
  }
  trace_adu(trace::EventType::kSrmReqSend, name,
            static_cast<std::uint64_t>(ttl), escalate ? 1.0 : 0.0);
  transmit(packet_for(std::make_shared<RequestMessage>(name, id_, st.dist, ttl),
                      ttl, escalate ? net::Scope::kGlobal : own_scope()),
           recovery_priority(name));

  // "...and doubles the request timer to wait for the repair."
  ++st.backoffs;
  if (st.backoffs > kMaxRequestBackoffs) {
    ++metrics_.recovery_abandoned;
    trace_adu(trace::EventType::kSrmAbandoned, name);
    // Index afresh: a TTL-policy hook may have grown the table.
    Slot& again = streams_[stream_of(name)].slots[name.seq];
    again.abandoned = true;
    ++abandoned_count_;
    again.request.reset();  // safe: a Timer may die in its own callback
    return;
  }
  schedule_request_timer(st, name);
  st.ignore_backoff_until = now + (st.timer.expiry_time() - now) / 2.0;
}

void SrmAgent::backoff_request(const DataName& name, RequestState& state) {
  const sim::Time now = transport_->queue().now();
  // Footnote 1's heuristic: requests heard before the ignore-backoff time
  // belong to the same loss-recovery iteration and cause no further backoff.
  if (config_.ignore_backoff_heuristic &&
      now < state.ignore_backoff_until) {
    trace_adu(trace::EventType::kSrmReqBackoff, name,
              static_cast<std::uint64_t>(state.backoffs), /*ignored=*/1.0);
    return;
  }
  // On the first reset, someone else's request went out before our timer.
  record_delay(state.delay_recorded, state.detect_time, state.dist,
               metrics_.request_delay_rtt, request_tuner_);
  ++state.backoffs;
  trace_adu(trace::EventType::kSrmReqBackoff, name,
            static_cast<std::uint64_t>(state.backoffs), /*ignored=*/0.0);
  if (state.backoffs > kMaxRequestBackoffs) return;  // keep waiting
  schedule_request_timer(state, name);
  state.ignore_backoff_until =
      now + (state.timer.expiry_time() - now) / 2.0;
}

void SrmAgent::complete_recovery(Stream& s, const DataName& name,
                                 const PayloadPtr& payload) {
  if (std::unique_ptr<RequestState>& request = s.slots[name.seq].request) {
    const double delay = transport_->queue().now() - request->detect_time;
    ++metrics_.recoveries;
    trace_adu(trace::EventType::kSrmRecovered, name, 0, delay);
    metrics_.recovery_delay_seconds.add(delay);
    metrics_.recovery_delay_rtt.add(delay / rtt_of(request->dist));
    request.reset();  // cancels the timer
  } else if (s.slots[name.seq].held) {
    return;
  }
  handle_data(s, name, payload, /*via_repair=*/true);
}

// ---------------------------------------------------------------------------
// Request handling (the receiving side)
// ---------------------------------------------------------------------------

void SrmAgent::handle_request(const RequestMessage& msg, net::Scope scope,
                              int hops) {
  const DataName& name = msg.name();
  Stream* s = admit(stream_of(name), name.seq);
  if (s == nullptr) return;
  ++metrics_.requests_heard;
  trace_adu(trace::EventType::kSrmReqHear, name, msg.requestor(), hops,
            msg.initial_ttl());
  Slot& slot = s->slots[name.seq];

  // Duplicate accounting continues for the whole request period, even after
  // the repair arrived and the request state is gone (Sec. VII-A).
  if (!slot.request) note_observed(request_period_, name, /*ours=*/false);

  if (slot.held) {
    maybe_schedule_repair(slot.repair_state(), name, msg, scope);
  } else if (slot.request) {
    RequestState& st = *slot.request;
    note_observed(request_period_, name, /*ours=*/false);
    if (config_.adaptive.enabled && st.we_sent_request) {
      request_tuner_.on_duplicate_from_farther(st.dist,
                                               msg.requestor_dist_to_source());
    }
    backoff_request(name, st);
  } else if (!slot.abandoned) {
    // A request for data we did not know existed: the request itself is the
    // loss detection; join the recovery in the suppressed state.  Abandoned
    // ADUs are excluded or two members missing unrecoverable data would
    // resurrect each other's requests forever.
    detect_loss(*s, name, /*via_request=*/true);
  }

  // The request also reveals stream extent beyond this one ADU.
  note_stream_advance(*s, stream_of(name), name.seq);

  if (hooks_.on_request_heard) hooks_.on_request_heard(name, msg.requestor());
}

// ---------------------------------------------------------------------------
// Repair scheduling and handling
// ---------------------------------------------------------------------------

void SrmAgent::maybe_schedule_repair(RepairState& rs, const DataName& name,
                                     const RequestMessage& msg,
                                     net::Scope scope) {
  const sim::Time now = transport_->queue().now();

  // Hold-down: ignore requests for 3*d_S seconds after sending or receiving
  // a repair for this data (Sec. III-B).
  if (now < rs.holddown_until) return;
  if (rs.timer && rs.timer->pending()) return;  // already set

  rs.dist = distance_to(msg.requestor());
  rs.dist_to_source =
      name.source == id_ ? rs.dist : distance_to(name.source);
  rs.requestor = msg.requestor();
  rs.request_ttl = msg.initial_ttl();
  rs.request_scope = scope;
  rs.timer_set_time = now;
  rs.delay_recorded = false;
  if (!rs.timer) {
    rs.timer.emplace(transport_->queue(),
                     [this, name] { on_repair_timer_expired(name); });
  }

  open_period(repair_period_, repair_tuner_, metrics_.dup_repairs_heard,
              trace::EventType::kSrmAdaptRep, name);

  const double lo = d1() * rs.dist;
  const double hi = (d1() + d2()) * rs.dist;
  const double delay = rng_.uniform(lo, hi);
  rs.timer->schedule_in(delay);
  trace_adu(trace::EventType::kSrmRepTimerSet, name, rs.requestor, delay,
            rs.dist);
}

void SrmAgent::on_repair_timer_expired(const DataName& name) {
  const Slot* slot = find_slot(name);
  if (slot == nullptr || !slot->repair) return;
  RepairState& rs = *slot->repair;
  if (!slot->held) return;  // lost the data since scheduling
  const sim::Time now = transport_->queue().now();
  trace_adu(trace::EventType::kSrmRepFire, name);

  record_delay(rs.delay_recorded, rs.timer_set_time, rs.dist_to_source,
               metrics_.repair_delay_rtt, repair_tuner_);

  ++metrics_.repairs_sent;
  note_observed(repair_period_, name, /*ours=*/true);
  if (config_.adaptive.enabled) repair_tuner_.on_sent();

  // Local recovery scoping (Sec. VII-B.3): step one of a two-step repair
  // answers a scoped request at its TTL, reaching the requestor.
  const bool step_one =
      config_.local_recovery.enabled && rs.request_ttl < net::kMaxTtl;
  const int ttl = step_one ? rs.request_ttl : net::kMaxTtl;

  if (tracer_->wants(trace::Category::kSrm)) {
    trace_adu(trace::EventType::kSrmRepSend, name,
              static_cast<std::uint64_t>(ttl), step_one ? 1.0 : 0.0,
              payload_digest(slot->payload));
  }
  // The repair answers with the scope the request used, so an escalated
  // (global) request is answered globally even by admin-scoped members.
  transmit(packet_for(std::make_shared<RepairMessage>(
                          name, slot->payload, id_, rs.requestor,
                          distance_to(rs.requestor), ttl, step_one),
                      ttl, rs.request_scope),
           recovery_priority(name));

  rs.holddown_until =
      now + kHolddownMultiplier * holddown_distance(name, rs.requestor);
}

double SrmAgent::holddown_distance(const DataName& name,
                                   SourceId requestor) const {
  // "host S is either the original source of the data or the source of the
  // first request": use the data's source when it is a live distinct member,
  // otherwise the requestor.
  if (name.source != id_) return distance_to(name.source);
  return distance_to(requestor);
}

void SrmAgent::handle_repair(const RepairMessage& msg, int hops) {
  const DataName& name = msg.name();
  Stream* s = admit(stream_of(name), name.seq);
  if (s == nullptr) return;
  ++metrics_.repairs_heard;
  const sim::Time now = transport_->queue().now();
  trace_adu(trace::EventType::kSrmRepHear, name, msg.responder(), hops,
            msg.initial_ttl());
  Slot& slot = s->slots[name.seq];

  // Repair-side suppression and hold-down.  A holder that had no repair
  // scheduled still enters hold-down, so a straggling duplicate request
  // does not trigger a redundant repair.
  if (slot.repair || slot.held) {
    RepairState& rs = slot.repair_state();
    note_observed(repair_period_, name, /*ours=*/false);
    if (rs.timer && rs.timer->pending()) {
      record_delay(rs.delay_recorded, rs.timer_set_time, rs.dist_to_source,
                   metrics_.repair_delay_rtt, repair_tuner_);
      rs.timer->cancel();
      trace_adu(trace::EventType::kSrmRepSuppress, name, msg.responder());
    }
    rs.holddown_until = now + kHolddownMultiplier *
                                  holddown_distance(name, msg.first_requestor());
  }

  // Request-side: the repair delivers the data.  The delivery hooks may
  // grow the table, so `slot` is not touched after them.
  const int our_ttl =
      slot.request ? slot.request->our_request_ttl : net::kMaxTtl;
  complete_recovery(*s, name, msg.payload());

  // Two-step local recovery: the named requestor re-multicasts the repair at
  // the TTL of its original request so everyone the request reached gets it.
  // Re-multicast at most once per ADU, and enter hold-down afterwards, so
  // duplicate step-one repairs do not fan out into duplicate step twos.
  Slot& after = s->slots[name.seq];
  if (msg.local_step_one() && msg.first_requestor() == id_ &&
      !after.step_two_sent) {
    after.step_two_sent = true;
    after.repair_state().holddown_until =
        now + kHolddownMultiplier * holddown_distance(name, msg.responder());
    ++metrics_.repairs_sent;
    if (tracer_->wants(trace::Category::kSrm)) {
      trace_adu(trace::EventType::kSrmRepSend, name,
                static_cast<std::uint64_t>(our_ttl), /*step=*/2.0,
                payload_digest(msg.payload()));
    }
    transmit(packet_for(std::make_shared<RepairMessage>(
                            name, msg.payload(), id_, id_, 0.0, our_ttl,
                            /*local_step_one=*/false),
                        our_ttl),
             recovery_priority(name));
  }
}

// ---------------------------------------------------------------------------
// Session messages
// ---------------------------------------------------------------------------

void SrmAgent::handle_session(const SessionMessage& msg) {
  estimator_.on_session_message(msg, id_);
  // A session report re-confirming an ADU we gave up on is fresh evidence
  // that a holder is still out there: re-arm the abandoned recovery.
  // (Without this, a recovery abandoned during heavy control-plane loss
  // would never be retried, breaking eventual delivery.)  Each re-arm draws
  // a timer, so they go in ascending name order: stream by stream as the
  // report lists them, ascending seq within a stream.
  for (auto e = msg.state().begin();
       abandoned_count_ > 0 && e != msg.state().end(); ++e) {
    const auto& [stream, max_seq] = *e;
    const auto it = streams_.find(stream);
    if (it == streams_.end()) continue;
    Stream& s = it->second;
    if (max_seq >= s.slots.size() + kMaxSeqReveal) continue;  // ignored
    for (SeqNo q = 0; q <= max_seq && q < s.slots.size(); ++q) {
      if (!s.slots[q].abandoned) continue;
      s.slots[q].abandoned = false;
      --abandoned_count_;
      detect_loss(s, DataName{stream.source, stream.page, q},
                  /*via_request=*/false);
    }
  }
  note_state_report(msg.state());
}

void SrmAgent::send_session_message(int ttl,
                                    SessionMessage::AreaDigests digests) {
  ++metrics_.session_sent;
  // "Each member only reports the state of the page it is currently
  // viewing" (Sec. III-A).  Session traffic has its own bandwidth budget (a
  // fraction of the data bandwidth); it does not compete through the data
  // token bucket.
  transport_->multicast(
      node_, packet_for(std::make_shared<SessionMessage>(
                            id_, clock_.now(), page_state(current_page_),
                            estimator_.build_echoes(
                                config_.session.echo_rotation),
                            std::move(digests)),
                        ttl, own_scope()));
  if (config_.session.enabled && started_) schedule_next_session_message();
}

void SrmAgent::schedule_next_session_message() {
  const std::size_t group_size = estimator_.peers_heard() + 1;
  const std::size_t bytes = 24 + 20 * estimator_.peers_heard();
  if (!session_timer_) {
    session_timer_ = std::make_unique<sim::Timer>(
        transport_->queue(), [this] { send_session_message(); });
  }
  session_timer_->schedule_in(
      session_scheduler_.next_interval(group_size, bytes));
}

// ---------------------------------------------------------------------------
// Period accounting for the adaptive algorithm
// ---------------------------------------------------------------------------

// One loss-recovery period per direction: a request period opens when a
// request timer is set, a repair period when a repair timer is; opening the
// next closes the last, feeding its duplicate count to the tuner.
void SrmAgent::open_period(std::optional<Period>& period, AdaptiveTuner& tuner,
                           std::uint64_t& dups_heard,
                           trace::EventType adapted, const DataName& name) {
  bool prev_we_sent = false;
  if (period) {
    if (period->name == name) return;  // already open for this loss
    const std::size_t dups = period->observed > 0 ? period->observed - 1 : 0;
    dups_heard += dups;
    prev_we_sent = period->we_sent;
    if (config_.adaptive.enabled) tuner.end_period(dups);
  }
  period = Period{name, 0, false};
  if (config_.adaptive.enabled) {
    tuner.adapt_on_timer_set(prev_we_sent);
    if (tracer_->wants(trace::Category::kSrm)) {
      trace::Event ev;
      ev.type = adapted;
      ev.t = transport_->queue().now();
      ev.actor = id_;
      ev.x = tuner.start();
      ev.y = tuner.width();
      tracer_->emit(ev);
    }
  }
}

void SrmAgent::note_observed(std::optional<Period>& period,
                             const DataName& name, bool ours) {
  if (!period || period->name != name) return;
  ++period->observed;
  if (ours) period->we_sent = true;
}

// Request (repair) delay, recorded once per timer: timer set -> first send
// by anyone, in RTTs of `dist`.
void SrmAgent::record_delay(bool& recorded, sim::Time timer_set_time,
                            double dist, util::Samples& samples,
                            AdaptiveTuner& tuner) {
  if (recorded) return;
  recorded = true;
  const double d =
      (transport_->queue().now() - timer_set_time) / rtt_of(dist);
  samples.add(d);
  if (config_.adaptive.enabled) tuner.record_delay(d);
}

// ---------------------------------------------------------------------------
// Transmission: priorities + token bucket (Sec. III-E)
// ---------------------------------------------------------------------------

SrmAgent::Priority SrmAgent::recovery_priority(const DataName& name) const {
  return name.page == current_page_ ? Priority::kCurrentPageRecovery
                                    : Priority::kOldPageRecovery;
}

net::Packet SrmAgent::packet_for(net::MessagePtr payload, int ttl,
                                 net::Scope scope) const {
  net::Packet packet;
  packet.group = group_;
  packet.ttl = ttl;
  packet.scope = scope;
  packet.payload = std::move(payload);
  return packet;
}

void SrmAgent::transmit(net::Packet packet, Priority priority) {
  const sim::Time now = transport_->queue().now();
  if (!config_.rate_limit.enabled ||
      ((send_queue_ == nullptr || send_queue_->empty()) &&
       rate_limiter_.try_consume(bytes_of(packet), now))) {
    transport_->multicast(node_, std::move(packet));
    return;
  }
  if (send_queue_ == nullptr) {
    send_queue_ = std::make_unique<std::deque<QueuedSend>>();
  }
  std::deque<QueuedSend>& queue = *send_queue_;
  // Insert keeping the queue ordered by priority band, FIFO within a band.
  QueuedSend qs{std::move(packet), priority, send_seq_++};
  auto pos = std::find_if(queue.begin(), queue.end(),
                          [&](const QueuedSend& other) {
                            return static_cast<int>(other.priority) >
                                   static_cast<int>(priority);
                          });
  queue.insert(pos, std::move(qs));
  if (!send_queue_timer_) {
    send_queue_timer_ = std::make_unique<sim::Timer>(
        transport_->queue(), [this] { drain_send_queue(); });
  }
  if (!send_queue_timer_->pending()) {
    send_queue_timer_->schedule_in(rate_limiter_.delay_until_available(
        bytes_of(queue.front().packet), now));
  }
}

void SrmAgent::drain_send_queue() {
  if (send_queue_ == nullptr) return;
  std::deque<QueuedSend>& queue = *send_queue_;
  const sim::Time now = transport_->queue().now();
  while (!queue.empty()) {
    const double bytes = bytes_of(queue.front().packet);
    if (!rate_limiter_.try_consume(bytes, now)) {
      send_queue_timer_->schedule_in(
          rate_limiter_.delay_until_available(bytes, now));
      return;
    }
    net::Packet packet = std::move(queue.front().packet);
    queue.pop_front();
    transport_->multicast(node_, std::move(packet));
  }
}

}  // namespace srm
