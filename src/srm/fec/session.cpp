#include "srm/fec/session.h"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.h"

namespace srm::fec {

namespace {

constexpr std::size_t kDataHeader = 11;    // tag + gen + idx + len
constexpr std::size_t kParityHeader = 22;  // tag..padded_len

void put_u16(Payload& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}
void put_u32(Payload& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}
void put_u64(Payload& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

template <typename T>
std::optional<T> get_le(const Payload& p, std::size_t at) {
  if (at + sizeof(T) > p.size()) return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
  }
  return static_cast<T>(v);
}

}  // namespace

FecSession::FecSession(SrmAgent& agent, const FecConfig& config)
    : agent_(&agent), config_(config) {
  if (config.generation_size == 0) {
    throw std::invalid_argument("FecSession: generation_size == 0");
  }
  if (config.max_k > kMaxParity) {
    throw std::invalid_argument("FecSession: max_k > 4");
  }
  previous_hooks_ = agent_->app_hooks();
  SrmAgent::AppHooks hooks = previous_hooks_;
  hooks.on_data = [this](const DataName& name, const Payload& frame,
                         bool via_repair) {
    on_agent_data(name, frame, via_repair);
  };
  hooks.on_request_heard = [this](const DataName& name, SourceId requestor) {
    if (name.source == agent_->id()) note_evidence(name);
    if (previous_hooks_.on_request_heard) {
      previous_hooks_.on_request_heard(name, requestor);
    }
  };
  agent_->set_app_hooks(std::move(hooks));
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

Payload FecSession::frame_data(std::uint32_t gen, std::uint16_t idx,
                               const Payload& app_payload) {
  Payload frame;
  frame.reserve(kDataHeader + app_payload.size());
  frame.push_back(kFecDataTag);
  put_u32(frame, gen);
  put_u16(frame, idx);
  put_u32(frame, static_cast<std::uint32_t>(app_payload.size()));
  frame.insert(frame.end(), app_payload.begin(), app_payload.end());
  return frame;
}

std::optional<DataFrame> FecSession::parse_data(const Payload& frame) {
  if (frame.empty() || frame[0] != kFecDataTag) return std::nullopt;
  const auto gen = get_le<std::uint32_t>(frame, 1);
  const auto idx = get_le<std::uint16_t>(frame, 5);
  const auto len = get_le<std::uint32_t>(frame, 7);
  if (!gen || !idx || !len || kDataHeader + *len != frame.size()) {
    return std::nullopt;
  }
  DataFrame out;
  out.gen = *gen;
  out.idx = *idx;
  out.payload.assign(frame.begin() + kDataHeader, frame.end());
  return out;
}

Payload FecSession::frame_parity(const ParityFrame& parity) {
  Payload frame;
  frame.reserve(kParityHeader + parity.body.size());
  frame.push_back(kFecParityTag);
  frame.push_back(parity.scheme);
  frame.push_back(parity.j);
  frame.push_back(parity.k);
  put_u32(frame, parity.gen);
  put_u16(frame, parity.n);
  put_u64(frame, parity.base_seq);
  put_u32(frame, parity.padded_len);
  frame.insert(frame.end(), parity.body.begin(), parity.body.end());
  return frame;
}

std::optional<ParityFrame> FecSession::parse_parity(const Payload& frame) {
  if (frame.size() < kParityHeader || frame[0] != kFecParityTag) {
    return std::nullopt;
  }
  ParityFrame out;
  out.scheme = frame[1];
  out.j = frame[2];
  out.k = frame[3];
  out.gen = *get_le<std::uint32_t>(frame, 4);
  out.n = *get_le<std::uint16_t>(frame, 8);
  out.base_seq = *get_le<std::uint64_t>(frame, 10);
  out.padded_len = *get_le<std::uint32_t>(frame, 18);
  if (kParityHeader + out.padded_len != frame.size()) return std::nullopt;
  if (out.k == 0 || out.k > kMaxParity || out.j >= out.k || out.n == 0) {
    return std::nullopt;
  }
  out.body.assign(frame.begin() + kParityHeader, frame.end());
  return out;
}

// ---------------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------------

FecSession::Outgoing& FecSession::outgoing_for(const PageId& page) {
  auto [it, inserted] = outgoing_.try_emplace(page, config_);
  if (inserted && burst_active_) it->second.budget.set_burst_epoch(true);
  return it->second;
}

std::size_t FecSession::current_k(const PageId& page) const {
  const auto it = outgoing_.find(page);
  if (it != outgoing_.end()) return it->second.budget.current_k();
  return std::min(config_.initial_k, config_.max_k);
}

DataName FecSession::send(const PageId& page, Payload app_payload) {
  Outgoing& out = outgoing_for(page);
  const auto idx = static_cast<std::uint16_t>(out.symbols.size());
  Payload frame = frame_data(out.gen, idx, app_payload);
  // The coded symbol is the frame's self-describing [u32 len][payload]
  // suffix, so a decoded symbol can be trimmed back to the exact frame.
  Symbol symbol(frame.begin() + 7, frame.end());
  const DataName name = agent_->send_data(page, std::move(frame));
  if (out.symbols.empty()) out.base_seq = name.seq;
  out.symbols.push_back(std::move(symbol));
  if (out.symbols.size() >= config_.generation_size) {
    seal_generation(page, out);
  }
  return name;
}

void FecSession::flush(const PageId& page) {
  const auto it = outgoing_.find(page);
  if (it == outgoing_.end() || it->second.symbols.empty()) return;
  seal_generation(page, it->second);
}

void FecSession::seal_generation(const PageId& page, Outgoing& out) {
  const std::size_t n = out.symbols.size();
  const std::size_t k = std::min(out.budget.current_k(), kMaxParity);
  if (k > 0) {
    const std::uint8_t scheme = scheme_for(k);
    const std::size_t width = padded_len(out.symbols);
    std::vector<Symbol> bodies = encode(out.symbols, k);
    for (std::size_t j = 0; j < k; ++j) {
      ParityFrame pf;
      pf.scheme = scheme;
      pf.j = static_cast<std::uint8_t>(j);
      pf.k = static_cast<std::uint8_t>(k);
      pf.gen = out.gen;
      pf.n = static_cast<std::uint16_t>(n);
      pf.base_seq = out.base_seq;
      pf.padded_len = static_cast<std::uint32_t>(width);
      pf.body = std::move(bodies[j]);
      const DataName pname = agent_->send_data(page, frame_parity(pf));
      ++stats_.parity_sent;
      ++agent_->metrics().fec_parity_sent;
      trace_fec(trace::EventType::kSrmFecParity,
                StreamKey{agent_->id(), page}, pname.seq, out.gen,
                static_cast<double>(scheme), static_cast<double>(k));
    }
  }
  ++stats_.generations_sealed;
  advance_budget(page, out);
  out.symbols.clear();
  ++out.gen;
}

void FecSession::advance_budget(const PageId& page, Outgoing& out) {
  const std::size_t k_old = out.budget.current_k();
  const std::size_t evidence = out.budget.evidence_pending();
  const std::size_t k_new = out.budget.on_generation_sealed();
  if (k_new == k_old) return;
  const StreamKey stream{agent_->id(), page};
  if (k_new > k_old) {
    ++stats_.budget_raises;
    trace_fec(trace::EventType::kSrmFecBudgetRaise, stream, 0, k_new,
              static_cast<double>(k_old), static_cast<double>(evidence));
  } else {
    ++stats_.budget_decays;
    trace_fec(trace::EventType::kSrmFecBudgetDecay, stream, 0, k_new,
              static_cast<double>(k_old),
              out.budget.burst_epoch_active() ? 1.0 : 0.0);
  }
}

void FecSession::note_evidence(const DataName& name) {
  const auto it = outgoing_.find(name.page);
  if (it != outgoing_.end()) it->second.budget.note_loss_evidence();
}

void FecSession::set_burst_epoch(bool active) {
  burst_active_ = active;
  for (auto& [page, out] : outgoing_) out.budget.set_burst_epoch(active);
}

// ---------------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------------

void FecSession::on_agent_data(const DataName& name, const Payload& frame,
                               bool via_repair) {
  const StreamKey stream = stream_of(name);
  if (!frame.empty() && frame[0] == kFecDataTag) {
    const auto data = parse_data(frame);
    if (!data) return;  // malformed; leave recovery to SRM
    GenState& gs = gens_[GenKey{stream, data->gen}];
    if (gs.data.size() <= data->idx) gs.data.resize(data->idx + 1);
    if (!gs.data[data->idx]) {
      gs.data[data->idx] = Symbol(frame.begin() + 7, frame.end());
    }
    if (handler_) handler_(name, data->payload, via_repair);
    try_reconstruct(stream, data->gen);
    return;
  }
  if (!frame.empty() && frame[0] == kFecParityTag) {
    auto parity = parse_parity(frame);
    if (!parity) {
      ++stats_.decode_failures;
      return;
    }
    GenState& gs = gens_[GenKey{stream, parity->gen}];
    if (!gs.geometry_known) {
      gs.n = parity->n;
      gs.scheme = parity->scheme;
      gs.base_seq = parity->base_seq;
      gs.padded_len = parity->padded_len;
      gs.geometry_known = true;
      if (gs.data.size() < gs.n) gs.data.resize(gs.n);
    }
    bool have_row = false;
    for (const auto& [j, body] : gs.parities) have_row |= (j == parity->j);
    if (!have_row && parity->body.size() == gs.padded_len) {
      gs.parities.emplace_back(parity->j, std::move(parity->body));
    }
    try_reconstruct(stream, parity->gen);
    return;
  }
  // Not an FEC frame (e.g. payloads seeded by the harness before the FEC
  // wrapper existed): deliver as-is.
  if (handler_) handler_(name, frame, via_repair);
}

void FecSession::try_reconstruct(const StreamKey& stream, std::uint32_t gen) {
  const GenKey key{stream, gen};
  GenState& gs = gens_[key];
  if (gs.done || !gs.geometry_known) return;

  std::vector<const Symbol*> data(gs.n, nullptr);
  std::size_t missing = 0;
  for (std::size_t i = 0; i < gs.n; ++i) {
    if (i < gs.data.size() && gs.data[i]) {
      data[i] = &*gs.data[i];
    } else {
      ++missing;
    }
  }
  if (missing == 0) {
    gs.done = true;
    return;
  }
  if (missing > gs.parities.size()) return;  // not enough parity (yet)

  auto recovered = decode(gs.scheme, data, gs.parities, gs.padded_len);
  if (recovered.empty()) {
    ++stats_.decode_failures;
    return;
  }

  // Install everything before feeding the agent: supply_data re-enters
  // on_agent_data to deliver the application payload, and the generation
  // must already look complete by then.
  struct Recovered {
    DataName name;
    Payload frame;
  };
  std::vector<Recovered> supplies;
  supplies.reserve(recovered.size());
  for (auto& [idx, symbol] : recovered) {
    const auto len = get_le<std::uint32_t>(symbol, 0);
    if (!len || 4 + *len > symbol.size()) {
      ++stats_.decode_failures;
      return;  // corrupt reconstruction; leave the generation to SRM
    }
    symbol.resize(4 + *len);  // strip the code's zero padding
    Payload frame;
    frame.reserve(kDataHeader + *len);
    frame.push_back(kFecDataTag);
    put_u32(frame, gen);
    put_u16(frame, static_cast<std::uint16_t>(idx));
    frame.insert(frame.end(), symbol.begin(), symbol.end());
    const DataName name{stream.source, stream.page, gs.base_seq + idx};
    supplies.push_back(Recovered{name, std::move(frame)});
    gs.data[idx] = std::move(symbol);
  }
  gs.done = true;
  const auto erasures = supplies.size();
  stats_.reconstructions += erasures;
  agent_->metrics().fec_reconstructions += erasures;

  for (Recovered& r : supplies) {
    trace_fec(trace::EventType::kSrmFecReconstruct, stream, r.name.seq, gen,
              static_cast<double>(gs.scheme), static_cast<double>(erasures));
    // Feeding it back through the agent cancels any pending request, stores
    // the frame for answering others' requests (byte-identical to the
    // original), and re-enters on_agent_data to deliver the app payload.
    agent_->supply_data(r.name, std::move(r.frame));
  }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

void FecSession::trace_fec(trace::EventType type, const StreamKey& stream,
                           SeqNo seq, std::uint64_t e, double x, double y) {
  trace::Tracer* tracer = agent_->tracer();
  if (!tracer->wants(trace::Category::kSrm)) return;
  trace::Event ev;
  ev.type = type;
  ev.t = agent_->queue().now();
  ev.actor = agent_->id();
  ev.a = stream.source;
  ev.b = stream.page.creator;
  ev.c = stream.page.number;
  ev.d = seq;
  ev.e = e;
  ev.x = x;
  ev.y = y;
  tracer->emit(ev);
}

}  // namespace srm::fec
