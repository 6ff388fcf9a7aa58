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
  session_timer_ = std::make_unique<sim::Timer>(
      transport_->queue(), [this] { send_session_message(); });
  send_queue_timer_ = std::make_unique<sim::Timer>(
      transport_->queue(), [this] { drain_send_queue(); });
  request_ttl_policy_ = [](const DataName&) { return net::kMaxTtl; };
  request_group_policy_ = [this](const DataName&) { return group_; };
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
  session_timer_->cancel();
  send_queue_timer_->cancel();
  for (auto& [name, st] : requests_) {
    if (st.timer) st.timer->cancel();
  }
  for (auto& [name, st] : repairs_) {
    if (st.timer) st.timer->cancel();
  }
  for (auto& [key, st] : page_replies_) {
    if (st.timer) st.timer->cancel();
  }
  for (net::GroupId g : extra_groups_) transport_->leave(g, node_);
  extra_groups_.clear();
  transport_->leave(group_, node_);
  transport_->detach(node_);
  directory_->unbind(id_);
}

void SrmAgent::join_extra_group(net::GroupId g) {
  if (extra_groups_.insert(g).second) transport_->join(g, node_);
}

void SrmAgent::leave_extra_group(net::GroupId g) {
  if (extra_groups_.erase(g) > 0) transport_->leave(g, node_);
}

void SrmAgent::send_app_message(net::GroupId g, net::MessagePtr message,
                                int ttl) {
  net::Packet packet;
  packet.group = g;
  packet.ttl = ttl;
  packet.scope = use_admin_scope_ ? net::Scope::kAdmin : net::Scope::kGlobal;
  packet.payload = std::move(message);
  transport_->multicast(node_, std::move(packet));
}

// ---------------------------------------------------------------------------
// Application-facing API
// ---------------------------------------------------------------------------

DataName SrmAgent::send_data(const PageId& page, Payload payload) {
  const SeqNo seq = next_seq_[page]++;
  const DataName name{id_, page, seq};
  auto shared = std::make_shared<const Payload>(std::move(payload));
  store_[name] = shared;

  StreamState& s = streams_[stream_of(name)];
  s.any_known = true;
  s.advertised_max = std::max(s.advertised_max, seq);
  s.received[seq] = true;
  note_page(page);

  ++metrics_.data_sent;
  net::Packet packet;
  packet.group = group_;
  packet.ttl = net::kMaxTtl;
  packet.payload = std::make_shared<DataMessage>(name, shared);
  transmit(std::move(packet), Priority::kNewData);
  return name;
}

void SrmAgent::seed_data(const DataName& name, Payload payload) {
  store_[name] = std::make_shared<const Payload>(std::move(payload));
  StreamState& s = streams_[stream_of(name)];
  s.any_known = true;
  s.advertised_max = std::max(s.advertised_max, name.seq);
  s.received[name.seq] = true;
  note_page(name.page);
  if (name.source == id_) {
    SeqNo& next = next_seq_[name.page];
    next = std::max(next, name.seq + 1);
  }
}

void SrmAgent::supply_data(const DataName& name, Payload payload) {
  auto shared = std::make_shared<const Payload>(std::move(payload));
  if (requests_.count(name) > 0) {
    complete_recovery(name, shared);
  } else if (store_.count(name) == 0) {
    handle_data(name, shared, /*via_repair=*/true);
  }
}

bool SrmAgent::has_data(const DataName& name) const {
  return store_.count(name) > 0;
}

const Payload* SrmAgent::find_data(const DataName& name) const {
  const auto it = store_.find(name);
  return it == store_.end() ? nullptr : it->second.get();
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
  const auto it = requests_.find(name);
  return it != requests_.end() && it->second.timer && it->second.timer->pending();
}

bool SrmAgent::repair_pending(const DataName& name) const {
  const auto it = repairs_.find(name);
  return it != repairs_.end() && it->second.timer && it->second.timer->pending();
}

// ---------------------------------------------------------------------------
// Receive dispatch
// ---------------------------------------------------------------------------

void SrmAgent::on_receive(const net::Packet& packet,
                          const net::DeliveryInfo& info) {
  if (const auto* data = dynamic_cast<const DataMessage*>(packet.payload.get())) {
    handle_data(data->name(), data->payload(), /*via_repair=*/false);
  } else if (const auto* req =
                 dynamic_cast<const RequestMessage*>(packet.payload.get())) {
    handle_request(*req, packet, info);
  } else if (const auto* rep =
                 dynamic_cast<const RepairMessage*>(packet.payload.get())) {
    handle_repair(*rep, packet, info);
  } else if (const auto* sess =
                 dynamic_cast<const SessionMessage*>(packet.payload.get())) {
    handle_session(*sess);
    if (hooks_.on_session_message) hooks_.on_session_message(*sess, info);
  } else if (const auto* preq = dynamic_cast<const PageRequestMessage*>(
                 packet.payload.get())) {
    handle_page_request(*preq);
  } else if (const auto* prep =
                 dynamic_cast<const PageReplyMessage*>(packet.payload.get())) {
    handle_page_reply(*prep);
  } else if (hooks_.on_unknown_message) {
    hooks_.on_unknown_message(packet, info);
  }
}

// ---------------------------------------------------------------------------
// Page-state recovery (Sec. III-A)
// ---------------------------------------------------------------------------

void SrmAgent::request_page_state(std::optional<PageId> page) {
  net::Packet packet;
  packet.group = group_;
  packet.ttl = net::kMaxTtl;
  packet.scope = use_admin_scope_ ? net::Scope::kAdmin : net::Scope::kGlobal;
  packet.payload = std::make_shared<PageRequestMessage>(id_, page);
  transmit(std::move(packet), page && *page == current_page_
                                  ? Priority::kCurrentPageRecovery
                                  : Priority::kOldPageRecovery);
}

std::vector<PageId> SrmAgent::known_pages() const {
  return std::vector<PageId>(known_pages_.begin(), known_pages_.end());
}

SessionMessage::StateReport SrmAgent::page_state(const PageId& page) const {
  SessionMessage::StateReport report;
  for (const auto& [stream, state] : streams_) {
    if (stream.page == page && state.any_known) {
      report[stream] = state.advertised_max;
    }
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
  auto [it, inserted] = page_replies_.try_emplace(key);
  PageReplyState& st = it->second;
  if (!inserted && st.timer && st.timer->pending()) return;  // scheduled
  st.requestor = msg.requestor();
  if (!st.timer) {
    st.timer = std::make_unique<sim::Timer>(
        transport_->queue(), [this, key] { on_page_reply_timer(key); });
  }
  // Same timer discipline as data repairs: randomized, distance-scaled,
  // suppressible (Sec. III-A: "almost identical to the repair
  // request/response protocol").
  const double d = distance_to(msg.requestor());
  st.timer->schedule_in(rng_.uniform(d1() * d, (d1() + d2()) * d));
}

void SrmAgent::on_page_reply_timer(const PageId& key) {
  const auto it = page_replies_.find(key);
  if (it == page_replies_.end()) return;
  const bool is_list = key == kPageListKey;
  auto reply = std::make_shared<PageReplyMessage>(
      id_, is_list ? std::optional<PageId>{} : std::optional<PageId>{key},
      is_list ? SessionMessage::StateReport{} : page_state(key),
      is_list ? known_pages() : std::vector<PageId>{});
  net::Packet packet;
  packet.group = group_;
  packet.ttl = net::kMaxTtl;
  packet.scope = use_admin_scope_ ? net::Scope::kAdmin : net::Scope::kGlobal;
  packet.payload = std::move(reply);
  transmit(std::move(packet), Priority::kOldPageRecovery);
}

void SrmAgent::handle_page_reply(const PageReplyMessage& msg) {
  // Suppression: someone else answered this page; cancel our own reply.
  const PageId key = msg.page() ? *msg.page() : kPageListKey;
  if (const auto it = page_replies_.find(key); it != page_replies_.end()) {
    if (it->second.timer) it->second.timer->cancel();
  }
  // The state report reveals the page's streams; normal loss detection and
  // recovery take over from here.
  for (const auto& [stream, max_seq] : msg.state()) {
    note_stream_advance(stream, max_seq);
  }
  if (!msg.page()) {
    for (const PageId& p : msg.known_pages()) note_page(p);
    if (hooks_.on_page_list) hooks_.on_page_list(msg.known_pages());
  }
}

// ---------------------------------------------------------------------------
// Data path and loss detection
// ---------------------------------------------------------------------------

void SrmAgent::handle_data(const DataName& name, const PayloadPtr& payload,
                           bool via_repair) {
  const bool is_new = store_.count(name) == 0;
  if (is_new) {
    store_[name] = payload;
    abandoned_.erase(name);  // the data showed up after all
    StreamState& s = streams_[stream_of(name)];
    s.received[name.seq] = true;
    // any_known / advertised_max maintained by note_stream_advance below.
  }
  note_stream_advance(stream_of(name), name.seq);
  if (is_new && hooks_.on_data) {
    static const Payload kEmpty;
    hooks_.on_data(name, payload ? *payload : kEmpty, via_repair);
  }
}

void SrmAgent::note_stream_advance(const StreamKey& stream, SeqNo seen_seq) {
  note_page(stream.page);
  if (stream.source == id_) return;  // we cannot miss our own data
  StreamState& s = streams_[stream];
  SeqNo scan_from = 0;
  if (s.any_known) {
    if (seen_seq <= s.advertised_max) return;  // nothing new revealed
    scan_from = s.advertised_max + 1;
  }
  s.any_known = true;
  s.advertised_max = std::max(s.advertised_max, seen_seq);
  // Every sequence number in [scan_from, seen_seq] is now known to exist;
  // any of them we neither hold nor are already recovering is a loss.
  for (SeqNo q = scan_from; q <= seen_seq; ++q) {
    if (s.received.count(q)) continue;
    const DataName missing{stream.source, stream.page, q};
    if (requests_.count(missing)) continue;
    detect_loss(missing, /*via_request=*/false);
  }
}

void SrmAgent::detect_loss(const DataName& name, bool via_request) {
  ++metrics_.losses_detected;
  if (hooks_.on_loss_detected) hooks_.on_loss_detected(name);
  const sim::Time now = transport_->queue().now();

  RequestState state;
  state.dist = distance_to(name.source);
  trace_adu(trace::EventType::kSrmLoss, name, via_request ? 1 : 0, 0.0,
            state.dist);
  state.detect_time = now;
  state.timer_set_time = now;
  state.timer = std::make_unique<sim::Timer>(
      transport_->queue(), [this, name] { on_request_timer_expired(name); });

  open_request_period(name);

  if (via_request) {
    // We learned of the loss from someone else's request: behave as if our
    // own (never-set) timer was suppressed once - schedule from the
    // backed-off interval and wait for the repair (Sec. III-B).
    state.backoffs = 1;
    state.delay_recorded = true;  // no timer of ours preceded the request
    note_request_observed(name, /*ours=*/false);
  }

  auto [it, inserted] = requests_.emplace(name, std::move(state));
  schedule_request_timer(it->second, name);
  if (via_request) {
    RequestState& st = it->second;
    st.ignore_backoff_until =
        now + (st.timer->expiry_time() - now) / 2.0;
  }
}

void SrmAgent::schedule_request_timer(RequestState& state,
                                      const DataName& name) {
  const double b = std::pow(config_.backoff_factor, state.backoffs);
  const double lo = b * c1() * state.dist;
  const double hi = b * (c1() + c2()) * state.dist;
  const double delay = rng_.uniform(lo, hi);
  state.timer->schedule_in(delay);
  trace_adu(trace::EventType::kSrmReqTimerSet, name,
            static_cast<std::uint64_t>(state.backoffs), delay, state.dist);
}

void SrmAgent::on_request_timer_expired(const DataName& name) {
  const auto it = requests_.find(name);
  if (it == requests_.end()) return;
  RequestState& st = it->second;
  const sim::Time now = transport_->queue().now();
  trace_adu(trace::EventType::kSrmReqFire, name,
            static_cast<std::uint64_t>(st.backoffs));

  if (!st.delay_recorded) {
    st.delay_recorded = true;
    const double d = (now - st.timer_set_time) / rtt_of(st.dist);
    metrics_.request_delay_rtt.add(d);
    if (config_.adaptive.enabled) request_tuner_.record_delay(d);
  }

  // Scope escalation (Sec. VII-B): once enough of our scoped requests have
  // gone unanswered, widen to global scope.  backoffs counts prior own
  // sends (and initial suppressions), so >= threshold means at least that
  // many unanswered requests preceded this one.
  const bool escalate =
      st.we_sent_request && st.backoffs >= kEscalateScopeAfter;

  // Send the request.
  ++metrics_.requests_sent;
  st.we_sent_request = true;
  note_request_observed(name, /*ours=*/true);
  if (config_.adaptive.enabled) request_tuner_.on_sent();
  const int ttl = escalate ? net::kMaxTtl : request_ttl_policy_(name);
  st.our_request_ttl = ttl;
  if (escalate) {
    trace_adu(trace::EventType::kSrmScopeEscalate, name,
              static_cast<std::uint64_t>(ttl));
  }
  trace_adu(trace::EventType::kSrmReqSend, name,
            static_cast<std::uint64_t>(ttl), escalate ? 1.0 : 0.0);
  net::Packet packet;
  packet.group = escalate ? group_ : request_group_policy_(name);
  packet.ttl = ttl;
  packet.scope = (use_admin_scope_ && !escalate) ? net::Scope::kAdmin
                                                 : net::Scope::kGlobal;
  packet.payload = request_pool_.acquire(name, id_, st.dist, ttl);
  transmit(std::move(packet), recovery_priority(name));

  // "...and doubles the request timer to wait for the repair."
  ++st.backoffs;
  if (st.backoffs > kMaxRequestBackoffs) {
    ++metrics_.recovery_abandoned;
    trace_adu(trace::EventType::kSrmAbandoned, name);
    abandoned_.insert(name);
    if (hooks_.on_recovery_abandoned) hooks_.on_recovery_abandoned(name);
    requests_.erase(it);  // safe: Timer callbacks are copied into events
    return;
  }
  schedule_request_timer(st, name);
  st.ignore_backoff_until = now + (st.timer->expiry_time() - now) / 2.0;
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
  if (!state.delay_recorded) {
    // First reset: someone else's request went out before our timer fired.
    state.delay_recorded = true;
    const double d = (now - state.timer_set_time) / rtt_of(state.dist);
    metrics_.request_delay_rtt.add(d);
    if (config_.adaptive.enabled) request_tuner_.record_delay(d);
  }
  ++state.backoffs;
  trace_adu(trace::EventType::kSrmReqBackoff, name,
            static_cast<std::uint64_t>(state.backoffs), /*ignored=*/0.0);
  if (state.backoffs > kMaxRequestBackoffs) return;  // keep waiting
  schedule_request_timer(state, name);
  state.ignore_backoff_until =
      now + (state.timer->expiry_time() - now) / 2.0;
}

void SrmAgent::complete_recovery(const DataName& name,
                                 const PayloadPtr& payload) {
  const auto it = requests_.find(name);
  if (it == requests_.end()) return;
  const sim::Time now = transport_->queue().now();
  const double delay = now - it->second.detect_time;
  ++metrics_.recoveries;
  trace_adu(trace::EventType::kSrmRecovered, name, 0, delay);
  metrics_.recovery_delay_seconds.add(delay);
  metrics_.recovery_delay_rtt.add(delay / rtt_of(it->second.dist));
  it->second.timer->cancel();
  requests_.erase(it);
  handle_data(name, payload, /*via_repair=*/true);
}

// ---------------------------------------------------------------------------
// Request handling (the receiving side)
// ---------------------------------------------------------------------------

void SrmAgent::handle_request(const RequestMessage& msg,
                              const net::Packet& packet,
                              const net::DeliveryInfo& info) {
  ++metrics_.requests_heard;
  const DataName& name = msg.name();
  trace_adu(trace::EventType::kSrmReqHear, name, msg.requestor());

  // Duplicate accounting continues for the whole request period, even after
  // the repair arrived and the request state is gone (Sec. VII-A).
  if (request_period_ && request_period_->name == name &&
      !requests_.count(name)) {
    note_request_observed(name, /*ours=*/false);
  }

  if (store_.count(name) > 0) {
    maybe_schedule_repair(name, msg, info, packet);
  } else if (const auto it = requests_.find(name); it != requests_.end()) {
    RequestState& st = it->second;
    note_request_observed(name, /*ours=*/false);
    if (config_.adaptive.enabled && st.we_sent_request) {
      request_tuner_.on_duplicate_from_farther(st.dist,
                                               msg.requestor_dist_to_source());
    }
    backoff_request(name, st);
  } else if (abandoned_.count(name) == 0) {
    // A request for data we did not know existed: the request itself is the
    // loss detection; join the recovery in the suppressed state.  Abandoned
    // ADUs are excluded or two members missing unrecoverable data would
    // resurrect each other's requests forever.
    (void)packet;
    detect_loss(name, /*via_request=*/true);
  }

  // The request also reveals stream extent beyond this one ADU.
  note_stream_advance(stream_of(name), name.seq);

  if (hooks_.on_request_heard) hooks_.on_request_heard(name, msg.requestor());
}

// ---------------------------------------------------------------------------
// Repair scheduling and handling
// ---------------------------------------------------------------------------

void SrmAgent::maybe_schedule_repair(const DataName& name,
                                     const RequestMessage& msg,
                                     const net::DeliveryInfo& info,
                                     const net::Packet& request_packet) {
  const sim::Time now = transport_->queue().now();
  auto [it, inserted] = repairs_.try_emplace(name);
  RepairState& rs = it->second;

  // Hold-down: ignore requests for 3*d_S seconds after sending or receiving
  // a repair for this data (Sec. III-B).
  if (!inserted && now < rs.holddown_until) return;
  if (!inserted && rs.timer && rs.timer->pending()) return;  // already set

  rs.dist = distance_to(msg.requestor());
  rs.dist_to_source =
      name.source == id_ ? rs.dist : distance_to(name.source);
  rs.requestor = msg.requestor();
  rs.request_ttl = msg.initial_ttl();
  rs.request_hops = info.hops;
  rs.request_scope = request_packet.scope;
  rs.request_group = request_packet.group;
  rs.timer_set_time = now;
  rs.delay_recorded = false;
  if (!rs.timer) {
    rs.timer = std::make_unique<sim::Timer>(
        transport_->queue(), [this, name] { on_repair_timer_expired(name); });
  }

  open_repair_period(name);

  const double lo = d1() * rs.dist;
  const double hi = (d1() + d2()) * rs.dist;
  const double delay = rng_.uniform(lo, hi);
  rs.timer->schedule_in(delay);
  trace_adu(trace::EventType::kSrmRepTimerSet, name, rs.requestor, delay,
            rs.dist);
}

void SrmAgent::on_repair_timer_expired(const DataName& name) {
  const auto it = repairs_.find(name);
  if (it == repairs_.end()) return;
  RepairState& rs = it->second;
  const auto data = store_.find(name);
  if (data == store_.end()) return;  // lost the data since scheduling
  const sim::Time now = transport_->queue().now();
  trace_adu(trace::EventType::kSrmRepFire, name);

  if (!rs.delay_recorded) {
    rs.delay_recorded = true;
    const double d = (now - rs.timer_set_time) / rtt_of(rs.dist_to_source);
    metrics_.repair_delay_rtt.add(d);
    if (config_.adaptive.enabled) repair_tuner_.record_delay(d);
  }

  ++metrics_.repairs_sent;
  note_repair_observed(name, /*ours=*/true);
  if (config_.adaptive.enabled) repair_tuner_.on_sent();

  // Local recovery scoping (Sec. VII-B.3).
  int ttl = net::kMaxTtl;
  bool step_one = false;
  if (config_.local_recovery.enabled && rs.request_ttl < net::kMaxTtl) {
    if (config_.local_recovery.two_step) {
      ttl = rs.request_ttl;  // step 1: reach the requestor
      step_one = true;
    } else {
      ttl = rs.request_ttl + rs.request_hops;  // one-step over-coverage
    }
  }

  trace_adu(trace::EventType::kSrmRepSend, name,
            static_cast<std::uint64_t>(ttl), step_one ? 1.0 : 0.0);
  net::Packet packet;
  // The repair answers on the group and with the scope the request used, so
  // recovery-group requests stay on the recovery group and an escalated
  // (global) request is answered globally even by admin-scoped members.
  packet.group = rs.request_group;
  packet.ttl = ttl;
  packet.scope = rs.request_scope;
  packet.payload =
      repair_pool_.acquire(name, data->second, id_, rs.requestor,
                           distance_to(rs.requestor), ttl, step_one);
  transmit(std::move(packet), recovery_priority(name));

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

void SrmAgent::handle_repair(const RepairMessage& msg,
                             const net::Packet& packet,
                             const net::DeliveryInfo& info) {
  (void)info;
  ++metrics_.repairs_heard;
  const DataName& name = msg.name();
  const sim::Time now = transport_->queue().now();
  trace_adu(trace::EventType::kSrmRepHear, name, msg.responder());

  // Repair-side suppression and hold-down.
  if (const auto it = repairs_.find(name); it != repairs_.end()) {
    RepairState& rs = it->second;
    note_repair_observed(name, /*ours=*/false);
    if (rs.timer && rs.timer->pending()) {
      if (!rs.delay_recorded) {
        rs.delay_recorded = true;
        const double d =
            (now - rs.timer_set_time) / rtt_of(rs.dist_to_source);
        metrics_.repair_delay_rtt.add(d);
        if (config_.adaptive.enabled) repair_tuner_.record_delay(d);
      }
      rs.timer->cancel();
      trace_adu(trace::EventType::kSrmRepSuppress, name, msg.responder());
    }
    rs.holddown_until = now + kHolddownMultiplier *
                                  holddown_distance(name, msg.first_requestor());
  } else if (store_.count(name) > 0) {
    // We hold the data but had no repair scheduled; still enter hold-down so
    // a straggling duplicate request does not trigger a redundant repair.
    RepairState rs;
    rs.holddown_until = now + kHolddownMultiplier *
                                  holddown_distance(name, msg.first_requestor());
    repairs_.emplace(name, std::move(rs));
  }

  // Request-side: the repair delivers the data.
  const int our_ttl = [&] {
    const auto it = requests_.find(name);
    return it == requests_.end() ? net::kMaxTtl : it->second.our_request_ttl;
  }();
  if (requests_.count(name) > 0) {
    complete_recovery(name, msg.payload());
  } else if (store_.count(name) == 0) {
    handle_data(name, msg.payload(), /*via_repair=*/true);
  }

  // Two-step local recovery: the named requestor re-multicasts the repair at
  // the TTL of its original request so everyone the request reached gets it.
  // Re-multicast at most once per ADU, and enter hold-down afterwards, so
  // duplicate step-one repairs do not fan out into duplicate step twos.
  if (msg.local_step_one() && msg.first_requestor() == id_ &&
      step_two_sent_.insert(name).second) {
    RepairState& rs = repairs_[name];
    rs.holddown_until =
        now + kHolddownMultiplier * holddown_distance(name, msg.responder());
    ++metrics_.repairs_sent;
    trace_adu(trace::EventType::kSrmRepSend, name,
              static_cast<std::uint64_t>(our_ttl), /*step_one=*/0.0);
    net::Packet out;
    out.group = packet.group;  // stay on the group the recovery runs on
    out.ttl = our_ttl;
    out.payload = repair_pool_.acquire(name, msg.payload(), id_, id_, 0.0,
                                       our_ttl, /*local_step_one=*/false);
    transmit(std::move(out), recovery_priority(name));
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
  // would never be retried, breaking eventual delivery.)
  if (!abandoned_.empty()) {
    std::vector<DataName> rearm;
    for (const DataName& name : abandoned_) {
      const auto it = msg.state().find(stream_of(name));
      if (it != msg.state().end() && name.seq <= it->second) {
        rearm.push_back(name);
      }
    }
    for (const DataName& name : rearm) {
      abandoned_.erase(name);
      detect_loss(name, /*via_request=*/false);
    }
  }
  for (const auto& [stream, max_seq] : msg.state()) {
    note_stream_advance(stream, max_seq);
  }
}

void SrmAgent::build_state_report(SessionMessage::StateReport& out) const {
  // "Each member only reports the state of the page it is currently
  // viewing" (Sec. III-A).
  out.clear();
  for (const auto& [stream, state] : streams_) {
    if (stream.page == current_page_ && state.any_known) {
      out[stream] = state.advertised_max;
    }
  }
}

void SrmAgent::send_session_message(int ttl) {
  ++metrics_.session_sent;
  // Build into the scratch buffers, then hand them to a pooled message:
  // SessionMessage::rebind swaps, so a recycled message's capacity flows
  // back into the scratch and steady-state sends allocate nothing.
  build_state_report(state_scratch_);
  estimator_.build_echoes(echo_scratch_, config_.session.echo_rotation);
  auto msg = session_pool_.acquire(id_, clock_.now(),
                                   std::move(state_scratch_),
                                   std::move(echo_scratch_));
  send_session_packet(std::move(msg), ttl);
}

void SrmAgent::send_session_message(int ttl,
                                    SessionMessage::AreaDigests&& digests) {
  ++metrics_.session_sent;
  build_state_report(state_scratch_);
  estimator_.build_echoes(echo_scratch_, config_.session.echo_rotation);
  auto msg = session_pool_.acquire(id_, clock_.now(),
                                   std::move(state_scratch_),
                                   std::move(echo_scratch_),
                                   std::move(digests));
  send_session_packet(std::move(msg), ttl);
}

void SrmAgent::send_session_packet(net::MessagePtr msg, int ttl) {
  net::Packet packet;
  packet.group = group_;
  packet.ttl = ttl;
  packet.scope = use_admin_scope_ ? net::Scope::kAdmin : net::Scope::kGlobal;
  packet.payload = std::move(msg);
  // Session traffic has its own bandwidth budget (a fraction of the data
  // bandwidth); it does not compete through the data token bucket.
  transport_->multicast(node_, std::move(packet));
  if (config_.session.enabled && started_) schedule_next_session_message();
}

void SrmAgent::schedule_next_session_message() {
  const std::size_t group_size = estimator_.peers_heard() + 1;
  const std::size_t bytes = 24 + 20 * estimator_.peers_heard();
  session_timer_->schedule_in(
      session_scheduler_.next_interval(group_size, bytes));
}

// ---------------------------------------------------------------------------
// Period accounting for the adaptive algorithm
// ---------------------------------------------------------------------------

void SrmAgent::open_request_period(const DataName& name) {
  bool prev_we_sent = false;
  if (request_period_) {
    if (request_period_->name == name) return;  // already open for this loss
    const std::size_t dups = request_period_->observed > 0
                                 ? request_period_->observed - 1
                                 : 0;
    metrics_.dup_requests_heard += dups;
    prev_we_sent = request_period_->we_sent;
    if (config_.adaptive.enabled) request_tuner_.end_period(dups);
  }
  request_period_ = Period{name, 0, false};
  if (config_.adaptive.enabled) {
    request_tuner_.adapt_on_timer_set(prev_we_sent);
    if (tracer_->wants(trace::Category::kSrm)) {
      trace::Event ev;
      ev.type = trace::EventType::kSrmAdaptReq;
      ev.t = transport_->queue().now();
      ev.actor = id_;
      ev.x = c1();
      ev.y = c2();
      tracer_->emit(ev);
    }
  }
}

void SrmAgent::note_request_observed(const DataName& name, bool ours) {
  if (!request_period_ || request_period_->name != name) return;
  ++request_period_->observed;
  if (ours) request_period_->we_sent = true;
}

void SrmAgent::open_repair_period(const DataName& name) {
  bool prev_we_sent = false;
  if (repair_period_) {
    if (repair_period_->name == name) return;
    const std::size_t dups =
        repair_period_->observed > 0 ? repair_period_->observed - 1 : 0;
    metrics_.dup_repairs_heard += dups;
    prev_we_sent = repair_period_->we_sent;
    if (config_.adaptive.enabled) repair_tuner_.end_period(dups);
  }
  repair_period_ = Period{name, 0, false};
  if (config_.adaptive.enabled) {
    repair_tuner_.adapt_on_timer_set(prev_we_sent);
    if (tracer_->wants(trace::Category::kSrm)) {
      trace::Event ev;
      ev.type = trace::EventType::kSrmAdaptRep;
      ev.t = transport_->queue().now();
      ev.actor = id_;
      ev.x = d1();
      ev.y = d2();
      tracer_->emit(ev);
    }
  }
}

void SrmAgent::note_repair_observed(const DataName& name, bool ours) {
  if (!repair_period_ || repair_period_->name != name) return;
  ++repair_period_->observed;
  if (ours) repair_period_->we_sent = true;
}

// ---------------------------------------------------------------------------
// Transmission: priorities + token bucket (Sec. III-E)
// ---------------------------------------------------------------------------

SrmAgent::Priority SrmAgent::recovery_priority(const DataName& name) const {
  return name.page == current_page_ ? Priority::kCurrentPageRecovery
                                    : Priority::kOldPageRecovery;
}

void SrmAgent::transmit(net::Packet packet, Priority priority) {
  if (!config_.rate_limit.enabled) {
    transport_->multicast(node_, std::move(packet));
    return;
  }
  const double bytes =
      static_cast<double>(packet.payload ? packet.payload->size_bytes() : 0);
  const sim::Time now = transport_->queue().now();
  if (send_queue_.empty() && rate_limiter_.try_consume(bytes, now)) {
    transport_->multicast(node_, std::move(packet));
    return;
  }
  // Insert keeping the queue ordered by priority band, FIFO within a band.
  QueuedSend qs{std::move(packet), priority, send_seq_++};
  auto pos = std::find_if(send_queue_.begin(), send_queue_.end(),
                          [&](const QueuedSend& other) {
                            return static_cast<int>(other.priority) >
                                   static_cast<int>(priority);
                          });
  send_queue_.insert(pos, std::move(qs));
  if (!send_queue_timer_->pending()) {
    const double head_bytes = static_cast<double>(
        send_queue_.front().packet.payload
            ? send_queue_.front().packet.payload->size_bytes()
            : 0);
    send_queue_timer_->schedule_in(
        rate_limiter_.delay_until_available(head_bytes, now));
  }
}

void SrmAgent::drain_send_queue() {
  const sim::Time now = transport_->queue().now();
  while (!send_queue_.empty()) {
    const double bytes = static_cast<double>(
        send_queue_.front().packet.payload
            ? send_queue_.front().packet.payload->size_bytes()
            : 0);
    if (!rate_limiter_.try_consume(bytes, now)) {
      send_queue_timer_->schedule_in(
          rate_limiter_.delay_until_available(bytes, now));
      return;
    }
    net::Packet packet = std::move(send_queue_.front().packet);
    send_queue_.pop_front();
    transport_->multicast(node_, std::move(packet));
  }
}

}  // namespace srm
