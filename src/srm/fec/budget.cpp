#include "srm/fec/budget.h"

#include <algorithm>

namespace srm::fec {

ParityBudgetController::ParityBudgetController(const FecConfig& config)
    : config_(config), k_(std::min(config.initial_k, config.max_k)) {}

void ParityBudgetController::note_loss_evidence(std::size_t count) {
  evidence_ += count;
}

void ParityBudgetController::set_burst_epoch(bool active) {
  burst_active_ = active;
  if (active) k_ = std::max(k_, floor_k());
}

std::size_t ParityBudgetController::floor_k() const {
  return burst_active_ ? std::min(config_.burst_floor, config_.max_k)
                       : std::size_t{0};
}

std::size_t ParityBudgetController::on_generation_sealed() {
  if (evidence_ > 0) {
    quiet_streak_ = 0;
    if (k_ == 0 || evidence_ >= config_.raise_threshold)
      k_ = std::min(k_ + 1, config_.max_k);
    evidence_ = 0;
  } else {
    ++quiet_streak_;
    if (quiet_streak_ >= config_.decay_after_quiet) {
      quiet_streak_ = 0;
      if (k_ > floor_k()) --k_;
    }
  }
  k_ = std::max(k_, floor_k());
  return k_;
}

}  // namespace srm::fec
