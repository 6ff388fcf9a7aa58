#include "srm/session_hierarchy.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace srm {

namespace {

// Each steady-state report interval is uniform in [1-kJitter, 1+kJitter] x
// report_interval, drawn statelessly keyed by (area, member slot, draw
// ordinal) so traces stay bit-identical under the parallel kernel.
constexpr double kJitter = 0.5;

std::uint64_t wheel_item(std::uint32_t epoch, std::uint32_t dense) {
  return (static_cast<std::uint64_t>(epoch) << 32) | dense;
}

}  // namespace

SessionHierarchy::SessionHierarchy(MemberDirectory& directory,
                                   const HierarchyConfig& config,
                                   std::uint32_t area_count,
                                   std::uint64_t seed)
    : directory_(&directory),
      config_(config),
      area_count_(std::max<std::uint32_t>(1, area_count)),
      seed_(seed) {
  areas_.resize(area_count_);
}

SessionHierarchy::~SessionHierarchy() {
  stop();
  // Unchain hooks so an agent outliving this object cannot call into it.
  for (const auto& m : members_) {
    if (m && m->attached && m->agent != nullptr) {
      m->agent->set_app_hooks(m->previous_hooks);
    }
  }
}

SessionHierarchy::Member& SessionHierarchy::ensure_member(SrmAgent& agent,
                                                          std::uint32_t area) {
  const std::uint32_t dense = directory_->index().intern(agent.id());
  if (dense >= members_.size()) members_.resize(dense + 1);
  if (!members_[dense]) {
    members_[dense] = std::make_unique<Member>();
    Member& m = *members_[dense];
    m.dense = dense;
    m.area = area;
    m.slot = static_cast<std::uint32_t>(areas_[area].member_dense.size());
    areas_[area].member_dense.push_back(dense);
    m.area_table.resize(area_count_);
  } else if (members_[dense]->area != area) {
    // Re-join into a different area: take a fresh slot there.  The old
    // slot stays allocated (slots are never recycled); peers' liveness for
    // it simply ages out.
    Member& m = *members_[dense];
    m.area = area;
    m.slot = static_cast<std::uint32_t>(areas_[area].member_dense.size());
    areas_[area].member_dense.push_back(dense);
    m.slots.clear();
  }
  return *members_[dense];
}

void SessionHierarchy::attach(SrmAgent& agent, std::uint32_t area) {
  if (area >= area_count_) {
    throw std::out_of_range("SessionHierarchy::attach: bad area");
  }
  Member& m = ensure_member(agent, area);
  if (m.attached) {
    throw std::logic_error("SessionHierarchy::attach: already attached");
  }
  m.agent = &agent;
  m.attached = true;
  ++m.epoch;  // invalidates any wheel item from a previous attachment
  m.previous_hooks = agent.app_hooks();
  SrmAgent::AppHooks hooks = m.previous_hooks;
  Member* mp = &m;
  hooks.on_session_message = [this, mp](const SessionMessage& msg,
                                        const net::DeliveryInfo& info) {
    on_session(*mp, msg, info);
    if (mp->previous_hooks.on_session_message) {
      mp->previous_hooks.on_session_message(msg, info);
    }
  };
  agent.set_app_hooks(std::move(hooks));
  wheel_for(agent.queue());  // create the queue's wheel while serialized
  if (running_) schedule_tick(m, /*initial=*/true);
}

void SessionHierarchy::detach(SrmAgent& agent) {
  const std::uint32_t dense = directory_->index().find(agent.id());
  if (dense == MemberIndex::kNoIndex || dense >= members_.size() ||
      !members_[dense] || !members_[dense]->attached) {
    throw std::out_of_range("SessionHierarchy::detach: not attached");
  }
  Member& m = *members_[dense];
  agent.set_app_hooks(m.previous_hooks);
  m.previous_hooks = SrmAgent::AppHooks{};
  m.attached = false;
  m.agent = nullptr;
  ++m.epoch;  // the pending wheel item (if any) goes stale
}

void SessionHierarchy::start() {
  if (running_) return;
  running_ = true;
  // Dense order: the schedule()-call sequence — and with it every queue's
  // event seq assignment — is a pure function of the membership.
  for (const auto& m : members_) {
    if (m && m->attached) schedule_tick(*m, /*initial=*/true);
  }
}

void SessionHierarchy::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& [queue, wheel] : wheels_) wheel->cancel_all();
}

sim::BatchTimerWheel& SessionHierarchy::wheel_for(sim::EventQueue& queue) {
  auto& slot = wheels_[&queue];
  if (!slot) {
    const sim::Time width = config_.report_interval / kWheelBuckets;
    slot = std::make_unique<sim::BatchTimerWheel>(
        queue, width, [this](std::uint64_t item) { on_wheel_item(item); });
  }
  return *slot;
}

void SessionHierarchy::schedule_tick(Member& m, bool initial) {
  const double u = util::keyed_unit(seed_, m.area, m.slot, m.ordinal++);
  const sim::Time iv = config_.report_interval;
  // Initial reports stagger uniformly across one interval; steady-state
  // intervals are uniform in [1-kJitter, 1+kJitter] x mean (Sec. III-A's
  // desynchronization, with stateless keyed draws).
  const sim::Time dt =
      initial ? iv * u : iv * (1.0 - kJitter + 2.0 * kJitter * u);
  sim::EventQueue& queue = m.agent->queue();
  wheel_for(queue).schedule(m.area, wheel_item(m.epoch, m.dense),
                            queue.now() + dt);
}

void SessionHierarchy::on_wheel_item(std::uint64_t item) {
  const auto dense = static_cast<std::uint32_t>(item & 0xFFFFFFFFu);
  const auto epoch = static_cast<std::uint32_t>(item >> 32);
  if (dense >= members_.size() || !members_[dense]) return;
  Member& m = *members_[dense];
  // A stale epoch is a lazily-cancelled timer (the member detached, and
  // possibly re-attached, since this item was scheduled): drop it.
  if (!m.attached || m.epoch != epoch || !running_) return;
  tick(m);
}

void SessionHierarchy::on_session(Member& m, const SessionMessage& msg,
                                  const net::DeliveryInfo& info) {
  const sim::Time now = m.agent->queue().now();
  // Representatives' global reports carry area digests; fold them so this
  // member tracks every area's live count at O(areas) memory.
  if (!msg.digests().empty()) m.area_table.fold(msg.digests(), now);
  // A message that arrived with hop count within the local radius means the
  // sender is in our local area, whatever TTL it was sent with.
  if (info.hops > config_.local_ttl) return;
  const std::uint32_t sender = directory_->index().find(msg.sender());
  if (sender == MemberIndex::kNoIndex || sender >= members_.size() ||
      !members_[sender]) {
    return;  // not a hierarchy member (e.g. flat-session traffic)
  }
  const Member& s = *members_[sender];
  if (s.area != m.area || s.dense == m.dense) return;
  if (s.slot >= m.slots.size()) {
    m.slots.resize(areas_[m.area].member_dense.size());
  }
  SlotRecord& heard = m.slots[s.slot];
  heard.last_heard = now;
  ++heard.reports;
  m.heard_local = true;
}

SourceId SessionHierarchy::elect(const Member& m, sim::Time now) const {
  SourceId rep = directory_->index().source_at(m.dense);  // self: always live
  const sim::Time horizon = staleness_horizon();
  const AreaInfo& area = areas_[m.area];
  const std::size_t n = std::min(m.slots.size(), area.member_dense.size());
  for (std::size_t s = 0; s < n; ++s) {
    if (now - m.slots[s].last_heard > horizon) continue;
    const SourceId id = directory_->index().source_at(area.member_dense[s]);
    if (id < rep) rep = id;
  }
  return rep;
}

std::uint32_t SessionHierarchy::count_live(const Member& m, sim::Time now,
                                           SeqNo* max_seq_out) const {
  const sim::Time horizon = staleness_horizon();
  std::uint32_t live = 1;  // self
  SeqNo max_seq = m.local_sent + m.global_sent;
  for (const SlotRecord& heard : m.slots) {
    if (now - heard.last_heard > horizon) continue;
    ++live;
    max_seq = std::max(max_seq, heard.reports);
  }
  if (max_seq_out != nullptr) *max_seq_out = max_seq;
  return live;
}

void SessionHierarchy::tick(Member& m) {
  const sim::Time now = m.agent->queue().now();
  // Cold-start guard: before a member has heard any local peer, elect()
  // trivially names it representative — if everyone acted on that, the
  // first interval would be G global reports, an O(G^2) delivery flood
  // that also makes every member intern ~G distant peers.  A member
  // therefore claims the representative role only with evidence: it has
  // heard its area (and still has the smallest id), or a full interval
  // passed with nobody audible (the genuine singleton-area case,
  // ordinal >= 2 means this is not the first tick).  The guard reads
  // member-local state only, so it is deterministic under the parallel
  // kernel.
  const bool warmed = m.heard_local || m.ordinal >= 2;
  if (warmed && elect(m, now) == m.agent->id()) {
    SeqNo max_seq = 0;
    const std::uint32_t live = count_live(m, now, &max_seq);
    ++m.global_sent;
    m.agent->send_session_message(
        net::kMaxTtl, AreaLiveTable::build_digests(m.area, live, max_seq));
  } else {
    ++m.local_sent;
    m.agent->send_session_message(config_.local_ttl);
  }
  schedule_tick(m, /*initial=*/false);
}

const SessionHierarchy::Member* SessionHierarchy::member_of(
    const SrmAgent& agent) const {
  const std::uint32_t dense = directory_->index().find(agent.id());
  if (dense == MemberIndex::kNoIndex || dense >= members_.size() ||
      !members_[dense]) {
    return nullptr;
  }
  return members_[dense].get();
}

std::uint32_t SessionHierarchy::area_of(const SrmAgent& agent) const {
  const Member* m = member_of(agent);
  if (m == nullptr) {
    throw std::out_of_range("SessionHierarchy::area_of: unknown member");
  }
  return m->area;
}

SourceId SessionHierarchy::representative_of(const SrmAgent& agent) const {
  const Member* m = member_of(agent);
  if (m == nullptr) {
    throw std::out_of_range(
        "SessionHierarchy::representative_of: unknown member");
  }
  return elect(*m, agent.queue().now());
}

std::size_t SessionHierarchy::live_local_peers(const SrmAgent& agent) const {
  const Member* m = member_of(agent);
  if (m == nullptr) return 0;
  return count_live(*m, agent.queue().now(), nullptr) - 1;
}

std::size_t SessionHierarchy::estimated_group_size(
    const SrmAgent& agent) const {
  const Member* m = member_of(agent);
  if (m == nullptr) return 0;
  const sim::Time now = agent.queue().now();
  return count_live(*m, now, nullptr) +
         m->area_table.live_elsewhere(m->area, now, staleness_horizon());
}

std::uint64_t SessionHierarchy::global_reports_sent() const {
  std::uint64_t total = 0;
  for (const auto& m : members_) {
    if (m) total += m->global_sent;
  }
  return total;
}

std::uint64_t SessionHierarchy::local_reports_sent() const {
  std::uint64_t total = 0;
  for (const auto& m : members_) {
    if (m) total += m->local_sent;
  }
  return total;
}

std::uint64_t SessionHierarchy::global_reports_sent(
    const SrmAgent& agent) const {
  const Member* m = member_of(agent);
  return m != nullptr ? m->global_sent : 0;
}

std::uint64_t SessionHierarchy::local_reports_sent(
    const SrmAgent& agent) const {
  const Member* m = member_of(agent);
  return m != nullptr ? m->local_sent : 0;
}

std::size_t SessionHierarchy::pending_wheel_buckets() const {
  std::size_t total = 0;
  for (const auto& [queue, wheel] : wheels_) total += wheel->pending_buckets();
  return total;
}

std::size_t SessionHierarchy::pending_wheel_items() const {
  std::size_t total = 0;
  for (const auto& [queue, wheel] : wheels_) total += wheel->pending_items();
  return total;
}

}  // namespace srm
