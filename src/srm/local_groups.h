// Local recovery via separate multicast groups (Sec. VII-B.2).
//
// "The initial requestor creates a separate multicast group for local
// recovery and invites other nearby members to join that multicast group.
// The multicast group must include some member capable of sending repairs.
// This mechanism is appropriate when there is a stable loss neighborhood
// that results from a particular lossy link."
//
// LocalGroupManager watches the agent's losses to build a loss fingerprint
// (the names of the last few local losses, as the paper suggests session
// messages could carry).  When a member keeps losing packets from the same
// stream, it creates a recovery group and multicasts a TTL-limited
// invitation carrying its fingerprint.  Members whose own recent losses
// overlap the fingerprint join, as do nearby members holding the data
// (potential repairers).  From then on the manager routes requests for that
// stream to the recovery group; SRM's scope escalation still falls back to
// the session group if the recovery group cannot answer.
#pragma once

#include <deque>
#include <set>
#include <string>
#include <unordered_map>

#include "srm/agent.h"
#include "srm/messages.h"

namespace srm {

// Invitation to join a recovery group, multicast with limited TTL.
class RecoveryInvite final : public net::Message {
 public:
  RecoveryInvite(net::GroupId recovery_group, SourceId initiator,
                 StreamKey stream, std::vector<DataName> fingerprint)
      : recovery_group_(recovery_group),
        initiator_(initiator),
        stream_(stream),
        fingerprint_(std::move(fingerprint)) {}

  net::GroupId recovery_group() const { return recovery_group_; }
  SourceId initiator() const { return initiator_; }
  const StreamKey& stream() const { return stream_; }
  const std::vector<DataName>& fingerprint() const { return fingerprint_; }

  std::string describe() const override {
    return "INVITE group " + std::to_string(recovery_group_) + " by " +
           std::to_string(initiator_);
  }
  std::size_t size_bytes() const override {
    return 32 + 20 * fingerprint_.size();
  }

 private:
  net::GroupId recovery_group_;
  SourceId initiator_;
  StreamKey stream_;
  std::vector<DataName> fingerprint_;
};

struct LocalGroupConfig {
  // TTL of the invitation (the local-recovery neighborhood radius).
  int invite_ttl = 8;
};

class LocalGroupManager {
 public:
  // Recovery group ids are derived from `group_base` + initiator id, so
  // independent initiators pick distinct groups without coordination.
  LocalGroupManager(SrmAgent& agent, LocalGroupConfig config,
                    net::GroupId group_base);

  // Chain this manager's hooks with an application's (the manager installs
  // itself into the agent's AppHooks; call this before setting app hooks or
  // use the returned previous hooks pattern below).
  // The manager preserves any hooks already installed.

  // True if this member routed `stream`'s requests to a recovery group.
  bool in_recovery_group(const StreamKey& stream) const {
    return stream_groups_.count(stream) > 0;
  }
  net::GroupId recovery_group_for(const StreamKey& stream) const;

  std::size_t invites_sent() const { return invites_sent_; }
  std::size_t groups_joined() const { return groups_joined_; }

 private:
  void on_loss(const DataName& name);
  void on_message(const net::Packet& packet, const net::DeliveryInfo& info);
  void handle_invite(const RecoveryInvite& invite,
                     const net::DeliveryInfo& info);
  void create_group(const StreamKey& stream);

  SrmAgent* agent_;
  LocalGroupConfig config_;
  net::GroupId group_base_;
  SrmAgent::AppHooks previous_hooks_;

  // Recent local losses, newest last, bounded by the fingerprint size.
  std::deque<DataName> recent_losses_;
  // Loss counts per stream since the last group creation for it.
  std::unordered_map<StreamKey, std::size_t> loss_counts_;
  // Streams whose recovery traffic moved to a dedicated group.
  std::unordered_map<StreamKey, net::GroupId> stream_groups_;

  std::size_t invites_sent_ = 0;
  std::size_t groups_joined_ = 0;
};

}  // namespace srm
