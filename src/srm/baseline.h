// Sender-based reliable-multicast baseline (the strawman of Sec. II-A, and
// the unicast-NACK scheme of the La Porta/Schwartz comparison in Sec. VI).
//
// Receivers detect sequence gaps exactly like SRM, but instead of scheduling
// a randomized, suppressible multicast request they immediately unicast a
// NACK to the original source.  The source retransmits — either by unicast
// to each NACKer or by a single multicast, per RepairMode.  There is no
// receiver-side suppression, so a loss shared by N receivers costs N NACKs
// at the source: the ACK/NACK implosion that motivates SRM.
//
// Used only by benches and tests as a comparison point; applications should
// use SrmAgent.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "net/network.h"
#include "net/packet.h"
#include "sim/timer.h"
#include "srm/agent.h"  // MemberDirectory
#include "srm/messages.h"
#include "srm/metrics.h"
#include "srm/names.h"
#include "util/rng.h"

namespace srm::baseline {

// NACK for one missing ADU, unicast to the data's source.
class NackMessage final : public net::Message {
 public:
  NackMessage(DataName name, SourceId requestor)
      : name_(name), requestor_(requestor) {}

  const DataName& name() const { return name_; }
  SourceId requestor() const { return requestor_; }

  std::string describe() const override {
    return "NACK " + to_string(name_) + " by " + std::to_string(requestor_);
  }
  std::size_t size_bytes() const override { return 40; }

 private:
  DataName name_;
  SourceId requestor_;
};

enum class RepairMode {
  kUnicastToNacker,  // source unicasts the retransmission to each NACKer
  kMulticast,        // source multicasts one retransmission per loss event
};

struct NackStats {
  std::uint64_t nacks_sent = 0;        // receiver side
  std::uint64_t nacks_received = 0;    // source side (implosion measure)
  std::uint64_t retransmissions = 0;   // source side
  std::uint64_t recoveries = 0;
  util::Samples recovery_delay_rtt;    // per recovery, receiver side
};

class NackAgent : public net::PacketSink {
 public:
  NackAgent(net::MulticastNetwork& network, MemberDirectory& directory,
            net::NodeId node, SourceId id, net::GroupId group,
            RepairMode repair_mode, util::Rng rng);
  ~NackAgent() override;

  void start();
  void stop();

  // Sends a new ADU (as the original source).
  DataName send_data(const PageId& page, Payload payload);

  bool has_data(const DataName& name) const { return store_.count(name) > 0; }
  const NackStats& stats() const { return stats_; }

  void on_receive(const net::Packet& packet,
                  const net::DeliveryInfo& info) override;

 private:
  struct PendingLoss {
    std::unique_ptr<sim::Timer> retransmit_timer;
    sim::Time detect_time = 0.0;
    double rtt = 1.0;
    int retries = 0;
  };

  void handle_data(const DataName& name, const PayloadPtr& payload);
  void handle_nack(const NackMessage& msg);
  void detect_gap(const StreamKey& stream, SeqNo seen);
  void send_nack(const DataName& name);
  double rtt_to(SourceId peer) const;

  net::MulticastNetwork* network_;
  MemberDirectory* directory_;
  net::NodeId node_;
  SourceId id_;
  net::GroupId group_;
  RepairMode repair_mode_;
  util::Rng rng_;

  std::unordered_map<DataName, PayloadPtr> store_;
  std::unordered_map<StreamKey, SeqNo> next_expected_;
  std::unordered_map<PageId, SeqNo> next_seq_;
  std::unordered_map<DataName, PendingLoss> pending_;
  // Source-side damping for multicast repairs.
  std::unordered_map<DataName, sim::Time> repair_holddown_;

  NackStats stats_;
  bool started_ = false;
};

}  // namespace srm::baseline
