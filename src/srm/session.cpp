#include "srm/session.h"

#include <algorithm>

namespace srm {

void DistanceEstimator::on_session_message(const SessionMessage& msg,
                                           SourceId self) {
  const sim::Time t2 = clock_->now();
  auto it = std::lower_bound(heard_.begin(), heard_.end(), msg.sender());
  if (it == heard_.end() || it->id != msg.sender()) {
    it = heard_.insert(it, Peer{msg.sender()});
  }
  Peer& peer = *it;
  peer.peer_timestamp = msg.sender_timestamp();
  peer.arrival = t2;

  const auto echo = msg.echoes().find(self);
  if (echo != msg.echoes().end()) {
    // d = (t2 - t1 - delta) / 2.  t1 is in our clock (we stamped it), t2 is
    // our clock now, delta is the peer's residence time, so clock offsets
    // cancel and only the peer's hold-time measurement matters.
    const double rtt = t2 - echo->second.peer_timestamp - echo->second.hold_time;
    // Guard against transient negatives from pathological hold times.
    peer.estimate = std::max(0.0, rtt / 2.0);
    peer.has_estimate = true;
  }
}

void DistanceEstimator::build_echoes(SessionMessage::Echoes& out,
                                     std::size_t max_echoes) {
  out.clear();
  const sim::Time now = clock_->now();
  const std::size_t n = heard_.size();
  const auto emit = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const Peer& peer = heard_[i];
      out[peer.id] =
          SessionMessage::Echo{peer.peer_timestamp, now - peer.arrival};
    }
  };
  if (max_echoes == 0 || max_echoes >= n) {
    emit(0, n);
    return;
  }
  // Rotating window [cursor, cursor + K) over the heard list, wrapped; the
  // wrapped (low) half is emitted first so the table stays sorted.
  const std::size_t start = rotation_cursor_ % n;
  const std::size_t stop = start + max_echoes;
  if (stop <= n) {
    emit(start, stop);
  } else {
    emit(0, stop - n);
    emit(start, n);
  }
  rotation_cursor_ = stop % n;
}

std::optional<double> DistanceEstimator::distance(SourceId peer) const {
  const auto it = std::lower_bound(heard_.begin(), heard_.end(), peer);
  if (it == heard_.end() || it->id != peer || !it->has_estimate) {
    return std::nullopt;
  }
  return it->estimate;
}

void AreaLiveTable::resize(std::uint32_t areas) {
  live_.resize(areas, 0);
  max_seq_.resize(areas, 0);
  heard_.resize(areas, 0.0);
  has_.resize(areas, 0);
}

void AreaLiveTable::fold(const SessionMessage::AreaDigests& digests,
                         sim::Time now) {
  for (const SessionMessage::AreaDigest& d : digests) {
    if (d.area >= live_.size()) continue;  // unknown area: stale topology
    live_[d.area] = d.live_members;
    if (d.max_seq > max_seq_[d.area]) max_seq_[d.area] = d.max_seq;
    heard_[d.area] = now;
    has_[d.area] = 1;
  }
}

std::size_t AreaLiveTable::live_elsewhere(std::uint32_t self_area,
                                          sim::Time now,
                                          sim::Time horizon) const {
  std::size_t total = 0;
  for (std::uint32_t a = 0; a < live_.size(); ++a) {
    if (a == self_area || !has_[a]) continue;
    if (now - heard_[a] > horizon) continue;
    total += live_[a];
  }
  return total;
}

void AreaLiveTable::build_digests(SessionMessage::AreaDigests& out,
                                  std::uint32_t self_area,
                                  std::uint32_t self_live,
                                  SeqNo self_max_seq) {
  out.clear();
  out.push_back(
      SessionMessage::AreaDigest{self_area, self_live, self_max_seq});
}

sim::Time SessionScheduler::mean_interval(std::size_t group_size,
                                          std::size_t message_bytes) const {
  const double session_bw =
      config_.bandwidth_fraction * config_.data_bandwidth_bytes;
  if (session_bw <= 0.0) return config_.min_interval;
  const double g = static_cast<double>(std::max<std::size_t>(1, group_size));
  const double interval =
      g * static_cast<double>(message_bytes) / session_bw;
  return std::max(config_.min_interval, interval);
}

sim::Time SessionScheduler::next_interval(std::size_t group_size,
                                          std::size_t message_bytes) {
  const sim::Time mean = mean_interval(group_size, message_bytes);
  const double lo = 1.0 - config_.jitter;
  const double hi = 1.0 + config_.jitter;
  return mean * rng_.uniform(lo, hi);
}

}  // namespace srm
