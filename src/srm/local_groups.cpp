#include "srm/local_groups.h"

#include <algorithm>

namespace srm {

namespace {

// Losses on one stream before the member considers the loss neighborhood
// stable and creates a recovery group.
constexpr std::size_t kLossesToTrigger = 3;
// Recent losses retained for the fingerprint.
constexpr std::size_t kFingerprintSize = 8;
// Minimum overlap (fraction of the invite's fingerprint also seen locally)
// for a member to join as a fellow loser.
constexpr double kJoinOverlap = 0.5;

}  // namespace

LocalGroupManager::LocalGroupManager(SrmAgent& agent, LocalGroupConfig config,
                                     net::GroupId group_base)
    : agent_(&agent), config_(config), group_base_(group_base) {
  // Install hooks, chaining to whatever the application already set.
  previous_hooks_ = agent_->app_hooks();
  SrmAgent::AppHooks hooks = previous_hooks_;
  hooks.on_loss_detected = [this](const DataName& n) {
    on_loss(n);
    if (previous_hooks_.on_loss_detected) previous_hooks_.on_loss_detected(n);
  };
  hooks.on_unknown_message = [this](const net::Packet& p,
                                    const net::DeliveryInfo& i) {
    on_message(p, i);
  };
  agent_->set_app_hooks(std::move(hooks));
  agent_->set_request_group_policy([this](const DataName& name) {
    const auto it = stream_groups_.find(stream_of(name));
    return it == stream_groups_.end() ? agent_->group() : it->second;
  });
}

net::GroupId LocalGroupManager::recovery_group_for(
    const StreamKey& stream) const {
  const auto it = stream_groups_.find(stream);
  if (it == stream_groups_.end()) {
    throw std::out_of_range("LocalGroupManager: no recovery group");
  }
  return it->second;
}

void LocalGroupManager::on_loss(const DataName& name) {
  recent_losses_.push_back(name);
  while (recent_losses_.size() > kFingerprintSize) {
    recent_losses_.pop_front();
  }
  const StreamKey stream = stream_of(name);
  if (stream_groups_.count(stream)) return;  // already using a group
  if (++loss_counts_[stream] >= kLossesToTrigger) {
    create_group(stream);
  }
}

void LocalGroupManager::create_group(const StreamKey& stream) {
  const net::GroupId group = group_base_ + agent_->id();
  agent_->join_extra_group(group);
  stream_groups_[stream] = group;
  loss_counts_[stream] = 0;

  std::vector<DataName> fingerprint(recent_losses_.begin(),
                                    recent_losses_.end());
  ++invites_sent_;
  // The invite goes out on the session group with limited TTL: only the
  // neighborhood that shares the lossy link (plus the nearest potential
  // repairers just upstream of it) should join.
  agent_->send_app_message(
      agent_->group(),
      std::make_shared<RecoveryInvite>(group, agent_->id(), stream,
                                       std::move(fingerprint)),
      config_.invite_ttl);
}

void LocalGroupManager::on_message(const net::Packet& packet,
                                   const net::DeliveryInfo& info) {
  if (const auto* invite =
          dynamic_cast<const RecoveryInvite*>(packet.payload.get())) {
    handle_invite(*invite, info);
    return;
  }
  if (previous_hooks_.on_unknown_message) {
    previous_hooks_.on_unknown_message(packet, info);
  }
}

void LocalGroupManager::handle_invite(const RecoveryInvite& invite,
                                      const net::DeliveryInfo& info) {
  if (invite.initiator() == agent_->id()) return;

  // Join as a fellow loser if our recent losses overlap the fingerprint,
  // or as a potential repairer if we hold the fingerprinted data (the
  // group "must include some member capable of sending repairs").
  std::size_t shared = 0, held = 0;
  for (const DataName& n : invite.fingerprint()) {
    if (std::find(recent_losses_.begin(), recent_losses_.end(), n) !=
        recent_losses_.end()) {
      ++shared;
    }
    if (agent_->has_data(n)) ++held;
  }
  const bool fellow_loser =
      !invite.fingerprint().empty() &&
      static_cast<double>(shared) >=
          kJoinOverlap * static_cast<double>(invite.fingerprint().size());
  // Only nearby holders volunteer as repairers — one repairer suffices, and
  // every extra member re-widens the neighborhood the group was created to
  // shrink.  Holders beyond half the invite radius stay out; if the group
  // ends up with no repairer at all, request-scope escalation still
  // recovers through the session group.
  const bool repairer =
      held > 0 && info.hops * 2 <= config_.invite_ttl;
  if (!fellow_loser && !repairer) return;

  agent_->join_extra_group(invite.recovery_group());
  ++groups_joined_;
  if (fellow_loser) {
    // Route our own future requests for this stream to the recovery group.
    stream_groups_.try_emplace(invite.stream(), invite.recovery_group());
  }
}

}  // namespace srm
