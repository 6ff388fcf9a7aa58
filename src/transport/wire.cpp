#include "transport/wire.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

namespace srm::transport {

namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) { out_->clear(); }

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void bytes(const std::uint8_t* p, std::size_t n) {
    out_->insert(out_->end(), p, p + n);
  }
  std::size_t size() const { return out_->size(); }

 private:
  // Canonical little-endian: emit bytes low-to-high regardless of host
  // order (loopback peers are same-host today, but the frame is a format).
  template <typename T>
  void fixed(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>* out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), end_(data + len) {}

  bool u8(std::uint8_t& v) {
    if (remaining() < 1) return fail();
    v = *p_++;
    return true;
  }
  bool u16(std::uint16_t& v) { return fixed(v); }
  bool u32(std::uint32_t& v) { return fixed(v); }
  bool u64(std::uint64_t& v) { return fixed(v); }
  // Every double on the wire is a time or a distance: a NaN, infinite or
  // negative one is a malformed field, rejected before it can reach a timer.
  bool f64(double& v) {
    std::uint64_t bits;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v) || v < 0.0) return fail();
    return true;
  }
  bool bytes(std::uint8_t* dst, std::size_t n) {
    if (remaining() < n) return fail();
    std::memcpy(dst, p_, n);
    p_ += n;
    return true;
  }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool ok() const { return ok_; }
  bool done() const { return ok_ && p_ == end_; }

 private:
  template <typename T>
  bool fixed(T& v) {
    if (remaining() < sizeof(T)) return fail();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      acc |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    }
    v = static_cast<T>(acc);
    p_ += sizeof(T);
    return true;
  }
  bool fail() {
    ok_ = false;
    return false;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Shared sub-records
// ---------------------------------------------------------------------------

void put_name(Writer& w, const DataName& n) {
  w.u32(n.source);
  w.u32(n.page.creator);
  w.u32(n.page.number);
  w.u64(n.seq);
}

bool get_name(Reader& r, DataName& n) {
  return r.u32(n.source) && r.u32(n.page.creator) && r.u32(n.page.number) &&
         r.u64(n.seq);
}

void put_page(Writer& w, const PageId& p) {
  w.u32(p.creator);
  w.u32(p.number);
}

bool get_page(Reader& r, PageId& p) {
  return r.u32(p.creator) && r.u32(p.number);
}

void put_opt_page(Writer& w, const std::optional<PageId>& p) {
  w.u8(p ? 1 : 0);
  put_page(w, p.value_or(PageId{}));
}

bool get_opt_page(Reader& r, std::optional<PageId>& out) {
  std::uint8_t has = 0;
  PageId page;
  if (!r.u8(has) || !get_page(r, page)) return false;
  if (has > 1) return false;
  out = has != 0 ? std::optional<PageId>(page) : std::nullopt;
  return true;
}

void put_payload(Writer& w, const PayloadPtr& p) {
  const std::size_t n = p ? p->size() : 0;
  w.u32(static_cast<std::uint32_t>(n));
  if (n > 0) w.bytes(p->data(), n);
}

bool get_payload(Reader& r, PayloadPtr& out) {
  std::uint32_t n = 0;
  if (!r.u32(n) || r.remaining() < n) return false;
  auto payload = std::make_shared<Payload>(n);
  if (n > 0 && !r.bytes(payload->data(), n)) return false;
  out = std::move(payload);
  return true;
}

void put_state(Writer& w, const SessionMessage::StateReport& state) {
  w.u32(static_cast<std::uint32_t>(state.size()));
  for (const auto& [stream, seq] : state) {
    w.u32(stream.source);
    put_page(w, stream.page);
    w.u64(seq);
  }
}

bool get_state(Reader& r, SessionMessage::StateReport& out) {
  std::uint32_t n = 0;
  if (!r.u32(n)) return false;
  // Each entry is 20 bytes; bound before reserving so a hostile count field
  // cannot force a huge allocation.
  if (r.remaining() < static_cast<std::size_t>(n) * 20) return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    StreamKey stream;
    SeqNo seq = 0;
    if (!r.u32(stream.source) || !get_page(r, stream.page) || !r.u64(seq)) {
      return false;
    }
    out.insert_or_assign(stream, seq);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// encode_frame
// ---------------------------------------------------------------------------

bool encode_frame(const net::Packet& packet, std::vector<std::uint8_t>& out) {
  const net::Message* msg = packet.payload.get();
  if (msg == nullptr) return false;
  const std::uint32_t kind = msg->trace_kind();
  if (kind < 1 || kind > 6) return false;

  Writer w(out);
  w.u32(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(packet.scope));
  w.u8(0);
  w.u32(packet.source);
  w.u32(packet.group);
  w.u16(static_cast<std::uint16_t>(packet.ttl));
  w.u16(0);

  switch (kind) {
    case 1: {
      const auto& m = static_cast<const DataMessage&>(*msg);
      put_name(w, m.name());
      put_payload(w, m.payload());
      break;
    }
    case 2: {
      const auto& m = static_cast<const RequestMessage&>(*msg);
      put_name(w, m.name());
      w.u32(m.requestor());
      w.f64(m.requestor_dist_to_source());
      w.u32(static_cast<std::uint32_t>(m.initial_ttl()));
      break;
    }
    case 3: {
      const auto& m = static_cast<const RepairMessage&>(*msg);
      put_name(w, m.name());
      w.u32(m.responder());
      w.u32(m.first_requestor());
      w.f64(m.responder_dist_to_requestor());
      w.u32(static_cast<std::uint32_t>(m.initial_ttl()));
      w.u8(m.local_step_one() ? 1 : 0);
      put_payload(w, m.payload());
      break;
    }
    case 4: {
      const auto& m = static_cast<const SessionMessage&>(*msg);
      w.u32(m.sender());
      w.f64(m.sender_timestamp());
      put_state(w, m.state());
      w.u32(static_cast<std::uint32_t>(m.echoes().size()));
      for (const auto& [peer, echo] : m.echoes()) {
        w.u32(peer);
        w.f64(echo.peer_timestamp);
        w.f64(echo.hold_time);
      }
      w.u32(static_cast<std::uint32_t>(m.digests().size()));
      for (const auto& d : m.digests()) {
        w.u32(d.area);
        w.u32(d.live_members);
        w.u64(d.max_seq);
      }
      break;
    }
    case 5: {
      const auto& m = static_cast<const PageRequestMessage&>(*msg);
      w.u32(m.requestor());
      put_opt_page(w, m.page());
      break;
    }
    case 6: {
      const auto& m = static_cast<const PageReplyMessage&>(*msg);
      w.u32(m.responder());
      put_opt_page(w, m.page());
      put_state(w, m.state());
      w.u32(static_cast<std::uint32_t>(m.known_pages().size()));
      for (const auto& p : m.known_pages()) put_page(w, p);
      break;
    }
    default:
      return false;
  }
  return w.size() <= kMaxFrameBytes;
}

// ---------------------------------------------------------------------------
// decode_frame
// ---------------------------------------------------------------------------

bool decode_frame(const std::uint8_t* data, std::size_t len,
                  DecodePools& pools, net::Packet& out) {
  if (len > kMaxFrameBytes) return false;
  Reader r(data, len);
  std::uint32_t magic = 0, source = 0, group = 0;
  std::uint8_t version = 0, kind = 0, scope = 0, pad8 = 0;
  std::uint16_t ttl = 0, pad16 = 0;
  if (!r.u32(magic) || !r.u8(version) || !r.u8(kind) || !r.u8(scope) ||
      !r.u8(pad8) || !r.u32(source) || !r.u32(group) || !r.u16(ttl) ||
      !r.u16(pad16)) {
    return false;
  }
  if (magic != kWireMagic || version != kWireVersion || scope > 1) return false;

  net::MessagePtr payload;
  switch (kind) {
    case 1: {
      DataName name;
      PayloadPtr bytes;
      if (!get_name(r, name) || !get_payload(r, bytes)) return false;
      payload = std::make_shared<DataMessage>(name, std::move(bytes));
      break;
    }
    case 2: {
      DataName name;
      std::uint32_t requestor = 0, initial_ttl = 0;
      double dist = 0.0;
      if (!get_name(r, name) || !r.u32(requestor) || !r.f64(dist) ||
          !r.u32(initial_ttl) || initial_ttl > net::kMaxTtl) {
        return false;
      }
      payload = pools.requests.acquire(name, requestor, dist,
                                       static_cast<int>(initial_ttl));
      break;
    }
    case 3: {
      DataName name;
      std::uint32_t responder = 0, first_requestor = 0, initial_ttl = 0;
      double dist = 0.0;
      std::uint8_t step_one = 0;
      PayloadPtr bytes;
      if (!get_name(r, name) || !r.u32(responder) || !r.u32(first_requestor) ||
          !r.f64(dist) || !r.u32(initial_ttl) || !r.u8(step_one) ||
          !get_payload(r, bytes) || initial_ttl > net::kMaxTtl ||
          step_one > 1) {
        return false;
      }
      payload = pools.repairs.acquire(name, std::move(bytes), responder,
                                      first_requestor, dist,
                                      static_cast<int>(initial_ttl),
                                      step_one != 0);
      break;
    }
    case 4: {
      std::uint32_t sender = 0, n_echo = 0, n_digest = 0;
      double timestamp = 0.0;
      if (!r.u32(sender) || !r.f64(timestamp) ||
          !get_state(r, pools.state_scratch) || !r.u32(n_echo) ||
          r.remaining() < static_cast<std::size_t>(n_echo) * 20) {
        return false;
      }
      pools.echo_scratch.clear();
      pools.echo_scratch.reserve(n_echo);
      for (std::uint32_t i = 0; i < n_echo; ++i) {
        std::uint32_t peer = 0;
        SessionMessage::Echo echo;
        if (!r.u32(peer) || !r.f64(echo.peer_timestamp) ||
            !r.f64(echo.hold_time)) {
          return false;
        }
        pools.echo_scratch.insert_or_assign(peer, echo);
      }
      if (!r.u32(n_digest) ||
          r.remaining() < static_cast<std::size_t>(n_digest) * 16) {
        return false;
      }
      pools.digest_scratch.clear();
      pools.digest_scratch.reserve(n_digest);
      for (std::uint32_t i = 0; i < n_digest; ++i) {
        SessionMessage::AreaDigest d;
        if (!r.u32(d.area) || !r.u32(d.live_members) || !r.u64(d.max_seq)) {
          return false;
        }
        pools.digest_scratch.push_back(d);
      }
      payload = pools.sessions.acquire(
          sender, timestamp, std::move(pools.state_scratch),
          std::move(pools.echo_scratch), std::move(pools.digest_scratch));
      break;
    }
    case 5: {
      std::uint32_t requestor = 0;
      std::optional<PageId> page;
      if (!r.u32(requestor) || !get_opt_page(r, page)) return false;
      payload = std::make_shared<PageRequestMessage>(requestor, page);
      break;
    }
    case 6: {
      std::uint32_t responder = 0, n_pages = 0;
      std::optional<PageId> page;
      SessionMessage::StateReport state;
      if (!r.u32(responder) || !get_opt_page(r, page) || !get_state(r, state) ||
          !r.u32(n_pages) ||
          r.remaining() < static_cast<std::size_t>(n_pages) * 8) {
        return false;
      }
      std::vector<PageId> pages;
      pages.reserve(n_pages);
      for (std::uint32_t i = 0; i < n_pages; ++i) {
        PageId p;
        if (!get_page(r, p)) return false;
        pages.push_back(p);
      }
      payload = std::make_shared<PageReplyMessage>(responder, page,
                                                   std::move(state),
                                                   std::move(pages));
      break;
    }
    default:
      return false;
  }

  if (!r.done()) return false;  // trailing bytes = malformed frame
  out.source = source;
  out.group = group;
  out.ttl = static_cast<int>(ttl);
  out.scope = static_cast<net::Scope>(scope);
  out.payload = std::move(payload);
  return true;
}

}  // namespace srm::transport
