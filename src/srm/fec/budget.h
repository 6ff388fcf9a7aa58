// Loss-adaptive parity budget: how many parity ADUs the next generation
// gets (ARCHITECTURE.md §11, "adaptive-K state machine").
//
// The controller is a deterministic hysteresis machine driven by two
// inputs the repair stack already produces:
//
//   * loss evidence — requests heard for the sender's own stream plus
//     DataNames in RecoveryInvite fingerprints (local_groups.h) naming it.
//     Each is a receiver that failed to get an ADU the cheap way.
//   * burst epochs — the fault layer's Gilbert-Elliott burst_on/burst_off
//     transitions (FaultInjector::set_epoch_observer), which floor K at
//     `burst_floor` for the epoch's duration: bursty links lose
//     consecutive ADUs, exactly the case K==1 XOR parity cannot repair.
//
// Transitions happen only at generation seal time and depend only on
// counts accumulated since the previous seal — never on wall clock or RNG —
// so a replicated or parallel-kernel run observes the identical K sequence
// and `--pdes-verify` stays bit-identical.  Every change is reported to the
// caller (FecSession) for kSrmFecBudgetRaise/Decay trace events.
#pragma once

#include <cstddef>
#include <cstdint>

#include "srm/config.h"

namespace srm::fec {

// Configured by srm::FecConfig's budget knobs (max_k, initial_k,
// raise_threshold, decay_after_quiet, burst_floor).  initial_k and
// burst_floor are clamped to max_k; a raise threshold or quiet count of 0
// acts like 1.
class ParityBudgetController {
 public:
  explicit ParityBudgetController(const FecConfig& config);

  // K for the generation being assembled right now.  K == 0 means the
  // generation seals with no parity at all — the quiet-link steady state,
  // where FEC costs nothing and losses fall through to plain SRM.
  std::size_t current_k() const { return k_; }

  // A receiver demonstrably missed an ADU of this stream (request heard, or
  // the stream appeared in a recovery-invite loss fingerprint).
  void note_loss_evidence(std::size_t count = 1);

  // Gilbert-Elliott burst epoch begins/ends.  Entering a burst floors K
  // immediately (the next generation already needs the protection); leaving
  // one lets the quiet-decay path bring K back down.
  void set_burst_epoch(bool active);

  bool burst_epoch_active() const { return burst_active_; }
  std::size_t evidence_pending() const { return evidence_; }

  // Called once per sealed generation; advances the hysteresis and returns
  // K for the NEXT generation.  Raise: evidence >= raise_threshold steps K
  // up by one (clamped to max_k; any evidence from a K==0 state steps to 1
  // — a quiet link that just lost something re-arms the cheap XOR tier
  // without waiting for a full threshold).  Decay: decay_after_quiet
  // consecutive evidence-free generations step K down by one, clamped to
  // burst_floor while a burst epoch is active and to 0 otherwise.
  std::size_t on_generation_sealed();

 private:
  std::size_t floor_k() const;

  FecConfig config_;
  std::size_t k_;
  std::size_t evidence_ = 0;      // since the last seal
  std::size_t quiet_streak_ = 0;  // consecutive evidence-free generations
  bool burst_active_ = false;
};

}  // namespace srm::fec
