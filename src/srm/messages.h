// SRM wire messages (Sec. III).
//
// Four message types ride the multicast group:
//   DATA     - original transmission of an ADU
//   REQUEST  - repair request, naming the missing ADU (not addressed to any
//              particular sender; anyone holding the data may answer)
//   REPAIR   - retransmission of an ADU, from any member that has it
//   SESSION  - periodic state report + timestamps for distance estimation
//
// Requests carry the requestor's estimated distance to the data's source and
// repairs the responder's estimated distance to the requestor, which the
// adaptive algorithm uses to prefer nearby responders (Sec. VII-A).
// Requests/repairs also carry their initial TTL in a payload field so
// receivers can recover the sender's intended scope (Sec. VII-B.3).
//
// Each class names its kind as `kKind`, which its trace_kind() returns: the
// `kind` field of net-layer trace events and the wire frame's kind byte.
// 1=DATA, 2=REQUEST, 3=REPAIR, 4=SESSION, 5=PAGE-REQUEST, 6=PAGE-REPLY,
// 7=NACK (baseline::NackMessage, srm/baseline.h; never on the wire);
// 0 = any other payload.  message_cast<T>() below classifies a payload by
// that kind: receivers switch on trace_kind() or call it, never RTTI.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/event_queue.h"
#include "srm/names.h"
#include "util/flat_map.h"

namespace srm {

// Opaque application payload bytes.
using Payload = std::vector<std::uint8_t>;
using PayloadPtr = std::shared_ptr<const Payload>;

// 32-bit FNV-1a digest of a payload (null reads as empty).  The data_send
// and rep_send trace events carry it, so the conformance fold
// (fault/conformance.h) can tell two payloads under one name apart.
inline std::uint32_t payload_digest(const PayloadPtr& payload) {
  std::uint32_t h = 2166136261u;
  if (payload) {
    for (const std::uint8_t byte : *payload) h = (h ^ byte) * 16777619u;
  }
  return h;
}

class DataMessage final : public net::Message {
 public:
  static constexpr std::uint32_t kKind = 1;

  DataMessage(DataName name, PayloadPtr payload)
      : name_(name), payload_(std::move(payload)) {}

  const DataName& name() const { return name_; }
  const PayloadPtr& payload() const { return payload_; }

  std::string describe() const override { return "DATA " + to_string(name_); }
  std::size_t size_bytes() const override {
    return 32 + (payload_ ? payload_->size() : 0);
  }
  std::uint32_t trace_kind() const override { return kKind; }

 private:
  DataName name_;
  PayloadPtr payload_;
};

class RequestMessage final : public net::Message {
 public:
  static constexpr std::uint32_t kKind = 2;

  RequestMessage(DataName name, SourceId requestor,
                 double requestor_dist_to_source, int initial_ttl)
      : name_(name),
        requestor_(requestor),
        requestor_dist_to_source_(requestor_dist_to_source),
        initial_ttl_(initial_ttl) {}

  const DataName& name() const { return name_; }
  SourceId requestor() const { return requestor_; }
  // The requestor's estimated one-way delay to the source of the missing
  // data; consumed by the adaptive timer mechanism.
  double requestor_dist_to_source() const { return requestor_dist_to_source_; }
  int initial_ttl() const { return initial_ttl_; }

  std::string describe() const override {
    return "REQUEST " + to_string(name_) + " by " + std::to_string(requestor_);
  }
  std::size_t size_bytes() const override { return 48; }
  std::uint32_t trace_kind() const override { return kKind; }

 private:
  DataName name_;
  SourceId requestor_;
  double requestor_dist_to_source_;
  int initial_ttl_;
};

class RepairMessage final : public net::Message {
 public:
  static constexpr std::uint32_t kKind = 3;

  RepairMessage(DataName name, PayloadPtr payload, SourceId responder,
                SourceId first_requestor, double responder_dist_to_requestor,
                int initial_ttl, bool local_step_one = false)
      : name_(name),
        payload_(std::move(payload)),
        responder_(responder),
        first_requestor_(first_requestor),
        responder_dist_to_requestor_(responder_dist_to_requestor),
        initial_ttl_(initial_ttl),
        local_step_one_(local_step_one) {}

  const DataName& name() const { return name_; }
  const PayloadPtr& payload() const { return payload_; }
  SourceId responder() const { return responder_; }
  // For two-step local recovery: the member whose request triggered this
  // repair; that member re-multicasts the repair at the request's TTL.
  SourceId first_requestor() const { return first_requestor_; }
  double responder_dist_to_requestor() const {
    return responder_dist_to_requestor_;
  }
  int initial_ttl() const { return initial_ttl_; }
  // True for the first (responder -> requestor) step of a two-step local
  // repair; the requestor answers it with the second, full-scope step.
  bool local_step_one() const { return local_step_one_; }

  std::string describe() const override {
    return "REPAIR " + to_string(name_) + " by " + std::to_string(responder_);
  }
  std::size_t size_bytes() const override {
    return 48 + (payload_ ? payload_->size() : 0);
  }
  std::uint32_t trace_kind() const override { return kKind; }

 private:
  DataName name_;
  PayloadPtr payload_;
  SourceId responder_;
  SourceId first_requestor_;
  double responder_dist_to_requestor_;
  int initial_ttl_;
  bool local_step_one_;
};

class SessionMessage final : public net::Message {
 public:
  static constexpr std::uint32_t kKind = 4;

  // State report: highest sequence number seen per active stream of the
  // page the sender is currently viewing (Sec. III-A).  Flat sorted vector:
  // built once per send, binary-searched on receive (see util/flat_map.h).
  using StateReport = util::FlatMap<StreamKey, SeqNo>;

  // Timestamp echo for NTP-lite distance estimation: "host B generates a
  // session packet marked with (t1, delta)" where t1 is the timestamp of the
  // last session packet B received from that peer and delta is how long B
  // held it before sending.
  struct Echo {
    sim::Time peer_timestamp = 0.0;  // t1, in the peer's clock
    sim::Time hold_time = 0.0;       // delta, receiver-side residence time

    friend bool operator==(const Echo&, const Echo&) = default;
  };

  // Echo table, sorted by peer Source-ID.
  using Echoes = util::FlatMap<SourceId, Echo>;

  // Hierarchical aggregation (Sec. IX-A; ARCHITECTURE.md §12): a
  // representative's global session message summarizes its local area so
  // every member can estimate the whole group's size without hearing every
  // member.  live_members counts local peers heard within the staleness
  // horizon; max_seq is the highest report ordinal observed in the area (a
  // freshness watermark).  Flat sessions leave the table empty, keeping the
  // wire format bit-identical to the pre-hierarchy tree.
  struct AreaDigest {
    std::uint32_t area = 0;
    std::uint32_t live_members = 0;
    SeqNo max_seq = 0;

    friend bool operator==(const AreaDigest&, const AreaDigest&) = default;
  };

  // Digest table, sorted by area id.
  using AreaDigests = std::vector<AreaDigest>;

  // The one way to build a session message.  The sender (or the wire
  // decoder) builds each table per send at its exact size and moves it in;
  // every delivery shares the message, which is freed with the last one, so
  // between reports a member holds no echo table at all.
  SessionMessage(SourceId sender, sim::Time sender_timestamp,
                 StateReport state, Echoes echoes, AreaDigests digests = {})
      : sender_(sender),
        sender_timestamp_(sender_timestamp),
        state_(std::move(state)),
        echoes_(std::move(echoes)),
        digests_(std::move(digests)) {}

  SourceId sender() const { return sender_; }
  // The sender's local clock when the message was sent (clocks need not be
  // synchronized across members).
  sim::Time sender_timestamp() const { return sender_timestamp_; }
  const StateReport& state() const { return state_; }
  const Echoes& echoes() const { return echoes_; }
  const AreaDigests& digests() const { return digests_; }

  std::string describe() const override {
    return "SESSION from " + std::to_string(sender_);
  }
  std::size_t size_bytes() const override {
    return 24 + 16 * state_.size() + 20 * echoes_.size() +
           12 * digests_.size();
  }
  std::uint32_t trace_kind() const override { return kKind; }

 private:
  SourceId sender_;
  sim::Time sender_timestamp_;
  StateReport state_;
  Echoes echoes_;
  AreaDigests digests_;
};

// Page-state recovery (Sec. III-A): "A receiver browsing over previous
// pages may issue page requests to learn the sequence number state for that
// page.  If a receiver joins late, it may issue page requests to learn the
// existence of previous pages."  The reply protocol mirrors the data
// repair protocol: any member holding the state answers after a randomized,
// suppressible delay.
class PageRequestMessage final : public net::Message {
 public:
  static constexpr std::uint32_t kKind = 5;

  // A nullopt page asks for the list of known pages instead of one page's
  // sequence state.
  PageRequestMessage(SourceId requestor, std::optional<PageId> page)
      : requestor_(requestor), page_(page) {}

  SourceId requestor() const { return requestor_; }
  const std::optional<PageId>& page() const { return page_; }

  std::string describe() const override {
    return page_ ? "PAGE-REQUEST " + to_string(*page_)
                 : "PAGE-REQUEST <list>";
  }
  std::size_t size_bytes() const override { return 32; }
  std::uint32_t trace_kind() const override { return kKind; }

 private:
  SourceId requestor_;
  std::optional<PageId> page_;
};

class PageReplyMessage final : public net::Message {
 public:
  static constexpr std::uint32_t kKind = 6;

  PageReplyMessage(SourceId responder, std::optional<PageId> page,
                   SessionMessage::StateReport state,
                   std::vector<PageId> known_pages)
      : responder_(responder),
        page_(page),
        state_(std::move(state)),
        known_pages_(std::move(known_pages)) {}

  SourceId responder() const { return responder_; }
  const std::optional<PageId>& page() const { return page_; }
  // Sequence-number state for the requested page (empty for list replies).
  const SessionMessage::StateReport& state() const { return state_; }
  // Pages this member knows of (for list replies).
  const std::vector<PageId>& known_pages() const { return known_pages_; }

  std::string describe() const override {
    return page_ ? "PAGE-REPLY " + to_string(*page_) : "PAGE-REPLY <list>";
  }
  std::size_t size_bytes() const override {
    return 32 + 16 * state_.size() + 8 * known_pages_.size();
  }
  std::uint32_t trace_kind() const override { return kKind; }

 private:
  SourceId responder_;
  std::optional<PageId> page_;
  SessionMessage::StateReport state_;
  std::vector<PageId> known_pages_;
};

// The payload as a T when it reports T's kind, else null (a null payload
// included).  Kinds are unique per class (the table above), so this is the
// checked downcast every receiver uses in place of dynamic_cast.
template <typename T>
const T* message_cast(const net::Message* msg) {
  return msg != nullptr && msg->trace_kind() == T::kKind
             ? static_cast<const T*>(msg)
             : nullptr;
}

}  // namespace srm
