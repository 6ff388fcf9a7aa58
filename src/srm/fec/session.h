// FecSession: generation-framed coded repair over an SrmAgent
// (ARCHITECTURE.md §11, per the Sec. VII-B FEC pointer).
//
// It lives entirely *above* the agent in ALF fashion: the application's
// payloads are framed into *generations* of `generation_size` data ADUs
// followed by K parity ADUs, K chosen per
// generation by a ParityBudgetController (srm/fec/budget.h).  A receiver
// holding any N-e of a generation's N data ADUs plus any e of its parity
// ADUs reconstructs the e missing ADUs locally and feeds them back with
// supply_data() — zero control traffic, and one multicast parity answers
// *different* losses at different receivers.  Anything the code cannot
// cover falls through to SRM request/repair unchanged, and parity ADUs are
// themselves ordinary ADUs SRM will repair on demand.
//
// Frame format (the application payload handed to SrmAgent); all integers
// little-endian:
//
//   data:    [0xD2] [u32 gen] [u16 idx] [u32 len] [payload...]
//   parity:  [0xF2] [u8 scheme] [u8 j] [u8 k] [u32 gen] [u16 n]
//            [u64 base_seq] [u32 padded_len] [body: padded_len bytes]
//
// The coded symbol for data index i is its `[u32 len][payload]` suffix,
// zero-padded to the generation's longest symbol; parity bodies are coded
// over those symbols with scheme 0 (XOR, K == 1) or scheme 1 (GF(256),
// K in [2..4]) — see srm/fec/block_code.h.  Only parity frames carry n, k
// and base_seq: K is unknown until the generation seals, and carrying the
// geometry on every parity (rather than on data frames) lets flush() seal
// short generations and lets a receiver that lost *all* data frames still
// anchor the generation at base_seq.
//
// Loss-adaptive budget: requests heard for this sender's streams
// (AppHooks::on_request_heard) are the loss evidence; the fault layer's
// Gilbert-Elliott epochs (FaultInjector::set_epoch_observer) floor K during
// bursts.  Transitions fire only at generation seals and are emitted as
// kSrmFecBudgetRaise/Decay trace events, so they are deterministic and
// auditable: replicated and parallel-kernel runs see identical K sequences.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "srm/agent.h"
#include "srm/fec/block_code.h"
#include "srm/fec/budget.h"
#include "srm/names.h"

namespace srm::fec {

inline constexpr std::uint8_t kFecDataTag = 0xD2;
inline constexpr std::uint8_t kFecParityTag = 0xF2;

struct FecStats {
  std::uint64_t parity_sent = 0;       // parity ADUs originated
  std::uint64_t generations_sealed = 0;
  std::uint64_t reconstructions = 0;   // ADUs recovered locally
  std::uint64_t decode_failures = 0;   // malformed/inconsistent generations
  std::uint64_t budget_raises = 0;
  std::uint64_t budget_decays = 0;
};

// Parsed views of the two frame kinds, exposed for tests and the docs'
// frame-format table.
struct DataFrame {
  std::uint32_t gen = 0;
  std::uint16_t idx = 0;
  Payload payload;
};
struct ParityFrame {
  std::uint8_t scheme = kSchemeXor;
  std::uint8_t j = 0;          // parity row index in [0, k)
  std::uint8_t k = 1;          // parity count of the generation
  std::uint32_t gen = 0;
  std::uint16_t n = 0;         // data ADUs in the generation
  std::uint64_t base_seq = 0;  // seq of the generation's first data ADU
  std::uint32_t padded_len = 0;
  Payload body;                // coded symbol, padded_len bytes
};

class FecSession {
 public:
  // Installs itself into the agent's AppHooks, chaining (not replacing) any
  // hooks already present.  Destroy the session before (or together with)
  // the agent; it does not unhook itself.
  FecSession(SrmAgent& agent, const FecConfig& config);

  FecSession(const FecSession&) = delete;
  FecSession& operator=(const FecSession&) = delete;

  // Sends one application payload; transparently seals the generation
  // (emitting its parity ADUs) after every generation_size-th send.
  // Returns the data ADU's name.
  DataName send(const PageId& page, Payload app_payload);

  // Seals the in-progress generation of `page` early (n < generation_size),
  // so a sender going quiet does not strand an unprotected tail.
  void flush(const PageId& page);

  // Application-level delivery (unframed payloads, data ADUs only, in any
  // order).  Parity ADUs and frames of foreign layers stay internal.
  using DataHandler =
      std::function<void(const DataName&, const Payload&, bool via_repair)>;
  void set_data_handler(DataHandler handler) { handler_ = std::move(handler); }

  // Gilbert-Elliott burst-epoch signal (wire to
  // FaultInjector::set_epoch_observer); floors every stream's K while
  // active.
  void set_burst_epoch(bool active);

  const FecStats& stats() const { return stats_; }
  const FecConfig& config() const { return config_; }
  // Parity budget currently armed for `page` (next generation's K).
  std::size_t current_k(const PageId& page) const;
  bool burst_epoch_active() const { return burst_active_; }

  // Frame helpers, exposed for tests.
  static Payload frame_data(std::uint32_t gen, std::uint16_t idx,
                            const Payload& app_payload);
  static std::optional<DataFrame> parse_data(const Payload& frame);
  static Payload frame_parity(const ParityFrame& parity);
  static std::optional<ParityFrame> parse_parity(const Payload& frame);

 private:
  // ---- sender side: one in-progress generation per page ----
  struct Outgoing {
    std::uint32_t gen = 0;
    std::uint64_t base_seq = 0;          // seq of the gen's first data ADU
    std::vector<Symbol> symbols;         // [u32 len][payload] per data ADU
    ParityBudgetController budget;
    explicit Outgoing(const FecConfig& config) : budget(config) {}
  };

  // ---- receiver side: per (stream, gen) reassembly ----
  struct GenState {
    std::vector<std::optional<Symbol>> data;  // grown on demand
    std::vector<std::pair<std::size_t, Symbol>> parities;  // (j, body)
    std::uint16_t n = 0;          // 0 until a parity frame reveals it
    std::uint8_t scheme = kSchemeXor;
    std::uint64_t base_seq = 0;
    std::uint32_t padded_len = 0;
    bool geometry_known = false;  // n/base_seq/padded_len valid
    bool done = false;            // complete or reconstructed
  };
  struct GenKey {
    StreamKey stream;
    std::uint32_t gen = 0;
    friend bool operator==(const GenKey&, const GenKey&) = default;
  };
  struct GenKeyHash {
    std::size_t operator()(const GenKey& k) const noexcept {
      return std::hash<StreamKey>{}(k.stream) ^
             (std::hash<std::uint64_t>{}(k.gen) * 0x9E3779B97F4A7C15ULL);
    }
  };

  Outgoing& outgoing_for(const PageId& page);
  void seal_generation(const PageId& page, Outgoing& out);
  void advance_budget(const PageId& page, Outgoing& out);

  void on_agent_data(const DataName& name, const Payload& frame,
                     bool via_repair);
  void try_reconstruct(const StreamKey& stream, std::uint32_t gen);
  void note_evidence(const DataName& name);

  void trace_fec(trace::EventType type, const StreamKey& stream, SeqNo seq,
                 std::uint64_t e, double x, double y);

  SrmAgent* agent_;
  FecConfig config_;
  DataHandler handler_;
  SrmAgent::AppHooks previous_hooks_;
  bool burst_active_ = false;

  std::unordered_map<PageId, Outgoing> outgoing_;
  std::unordered_map<GenKey, GenState, GenKeyHash> gens_;

  FecStats stats_;
};

}  // namespace srm::fec
