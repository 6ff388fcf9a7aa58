#include "srm/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "topo/builders.h"
#include "harness/session.h"
#include "util/rng.h"

namespace srm {
namespace {

// --- DistanceEstimator algebra, directly -----------------------------------

TEST(DistanceEstimatorTest, TwoWayExchangeYieldsOneWayDelay) {
  sim::EventQueue q;
  // Hosts with wildly different clock offsets; true one-way delay is 3s.
  sim::LocalClock clock_a(q, 500.0);
  sim::LocalClock clock_b(q, -200.0);
  DistanceEstimator est_a(clock_a);
  DistanceEstimator est_b(clock_b);
  const SourceId A = 1, B = 2;

  // t = 0: A sends a session packet stamped with its clock.
  SessionMessage from_a(A, clock_a.now(), {}, {});
  // t = 3: B receives it.
  q.schedule_at(3.0, [&] { est_b.on_session_message(from_a, B); });
  // t = 10: B replies, echoing A's timestamp with its 7s hold time.
  std::shared_ptr<SessionMessage> from_b;
  q.schedule_at(10.0, [&] {
    from_b = std::make_shared<SessionMessage>(B, clock_b.now(),
                                              SessionMessage::StateReport{},
                                              est_b.build_echoes());
  });
  // t = 13: A receives the reply and can now estimate d = (13 - 0 - 7)/2 = 3.
  q.schedule_at(13.0, [&] { est_a.on_session_message(*from_b, A); });
  q.run();
  ASSERT_EQ(from_b->echoes().count(A), 1u);
  EXPECT_DOUBLE_EQ(from_b->echoes().at(A).hold_time, 7.0);

  const auto d = est_a.distance(B);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 3.0, 1e-9);
}

TEST(DistanceEstimatorTest, NoEstimateBeforeEcho) {
  sim::EventQueue q;
  sim::LocalClock clock(q, 0.0);
  DistanceEstimator est(clock);
  SessionMessage msg(2, 0.0, {}, {});
  est.on_session_message(msg, 1);
  EXPECT_FALSE(est.distance(2).has_value());
  EXPECT_EQ(est.peers_heard(), 1u);
}

TEST(DistanceEstimatorTest, NegativeArtifactsClampToZero) {
  sim::EventQueue q;
  sim::LocalClock clock(q, 0.0);
  DistanceEstimator est(clock);
  // Echo claims a hold time larger than the elapsed time: clamp, not negative.
  SessionMessage::Echoes echoes;
  echoes[1] = SessionMessage::Echo{0.0, 50.0};
  q.schedule_at(10.0, [&] {
    SessionMessage msg(2, 0.0, {}, echoes);
    est.on_session_message(msg, 1);
  });
  q.run();
  ASSERT_TRUE(est.distance(2).has_value());
  EXPECT_GE(*est.distance(2), 0.0);
}

TEST(DistanceEstimatorTest, EstimatesIndependentOfClockSkew) {
  // Run the identical two-way exchange under wildly different clock offsets;
  // the NTP-lite algebra (Sec. III-A) cancels offsets, so the estimate must
  // not move.
  const auto estimate_with_offsets = [](double offset_a, double offset_b) {
    sim::EventQueue q;
    sim::LocalClock clock_a(q, offset_a);
    sim::LocalClock clock_b(q, offset_b);
    DistanceEstimator est_a(clock_a);
    DistanceEstimator est_b(clock_b);
    SessionMessage from_a(1, clock_a.now(), {}, {});
    q.schedule_at(2.5, [&] { est_b.on_session_message(from_a, 2); });
    std::shared_ptr<SessionMessage> from_b;
    q.schedule_at(9.0, [&] {
      from_b = std::make_shared<SessionMessage>(
          2, clock_b.now(), SessionMessage::StateReport{}, est_b.build_echoes());
    });
    q.schedule_at(11.5, [&] { est_a.on_session_message(*from_b, 1); });
    q.run();
    return est_a.distance(2);
  };
  const auto plain = estimate_with_offsets(0.0, 0.0);
  const auto skewed = estimate_with_offsets(1.0e6, -3141.5);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(skewed.has_value());
  EXPECT_DOUBLE_EQ(*plain, *skewed);
  EXPECT_NEAR(*plain, 2.5, 1e-9);
}

TEST(DistanceEstimatorTest, EchoRotationWindowsRotateAndStaySorted) {
  sim::EventQueue q;
  sim::LocalClock clock(q, 0.0);
  DistanceEstimator est(clock);
  // Hear five peers (deliberately out of id order).
  for (SourceId peer : {30u, 10u, 50u, 20u, 40u}) {
    SessionMessage msg(peer, 0.0, {}, {});
    est.on_session_message(msg, 1);
  }
  ASSERT_EQ(est.peers_heard(), 5u);

  const auto keys_of = [](const SessionMessage::Echoes& e) {
    std::vector<SourceId> keys;
    for (const auto& [peer, echo] : e) keys.push_back(peer);
    return keys;
  };
  // K = 0 (the default) echoes everyone, in ascending id order.
  EXPECT_EQ(keys_of(est.build_echoes()),
            (std::vector<SourceId>{10, 20, 30, 40, 50}));
  // K = 2 walks a rotating window over the heard list; each table is still
  // sorted (the wrapped half is emitted first) and four builds cover every
  // peer at least once.
  EXPECT_EQ(keys_of(est.build_echoes(2)), (std::vector<SourceId>{10, 20}));
  EXPECT_EQ(keys_of(est.build_echoes(2)), (std::vector<SourceId>{30, 40}));
  EXPECT_EQ(keys_of(est.build_echoes(2)), (std::vector<SourceId>{10, 50}));
  EXPECT_EQ(keys_of(est.build_echoes(2)), (std::vector<SourceId>{20, 30}));
  // A cap at or above the heard count degenerates to echo-everyone.
  EXPECT_EQ(keys_of(est.build_echoes(9)),
            (std::vector<SourceId>{10, 20, 30, 40, 50}));
}

// Reference implementation: the std::map-based estimator the flat store
// replaced, transcribed directly, plus the echo-rotation window written as
// modular positions over its sorted peers.
struct RefEstimator {
  struct Peer {
    double timestamp = 0.0;
    double arrival = 0.0;
  };
  std::map<SourceId, Peer> peers;
  std::map<SourceId, double> estimates;
  std::size_t cursor = 0;

  void on_session_message(const SessionMessage& msg, SourceId self,
                          double now) {
    Peer& p = peers[msg.sender()];
    p.timestamp = msg.sender_timestamp();
    p.arrival = now;
    const auto echo = msg.echoes().find(self);
    if (echo != msg.echoes().end()) {
      const double rtt =
          now - echo->second.peer_timestamp - echo->second.hold_time;
      estimates[msg.sender()] = std::max(0.0, rtt / 2.0);
    }
  }
  std::map<SourceId, SessionMessage::Echo> build_echoes(double now,
                                                        std::size_t k = 0) {
    std::vector<SourceId> ids;
    for (const auto& [id, p] : peers) ids.push_back(id);
    const std::size_t n = ids.size();
    std::vector<SourceId> window = ids;
    if (k != 0 && k < n) {
      window.clear();
      for (std::size_t i = 0; i < k; ++i) {
        window.push_back(ids[(cursor + i) % n]);
      }
      cursor = (cursor % n + k) % n;
    }
    std::map<SourceId, SessionMessage::Echo> out;
    for (SourceId id : window) {
      out[id] = SessionMessage::Echo{peers[id].timestamp,
                                     now - peers[id].arrival};
    }
    return out;
  }
};

// Same entries, in the same iteration order.
void expect_same_echoes(const SessionMessage::Echoes& got,
                        const std::map<SourceId, SessionMessage::Echo>& want) {
  ASSERT_EQ(got.size(), want.size());
  auto it = got.begin();
  for (const auto& [peer, echo] : want) {
    EXPECT_EQ(it->first, peer);
    EXPECT_DOUBLE_EQ(it->second.peer_timestamp, echo.peer_timestamp);
    EXPECT_DOUBLE_EQ(it->second.hold_time, echo.hold_time);
    ++it;
  }
}

// Replays one recorded randomized exchange through the estimator and the
// reference and requires identical observable state.  Senders are drawn
// from `ids`; `descending_first` first hears every id once in descending
// order (each a front insert); `rotation` > 0 builds a K-capped echo table
// after every message, so the rotation window moves across inserts.
void replay_against_reference(const std::vector<SourceId>& ids,
                              bool descending_first, std::size_t rotation) {
  sim::EventQueue q;
  sim::LocalClock clock(q, 0.0);
  DistanceEstimator est(clock);
  RefEstimator ref;
  const SourceId self = 5;
  util::Rng rng(99);

  std::vector<SourceId> first_heard;
  if (descending_first) {
    first_heard = ids;
    std::sort(first_heard.rbegin(), first_heard.rend());
  }
  double t = 0.0;
  for (std::size_t i = 0; i < 300; ++i) {
    t += rng.uniform(0.01, 2.0);
    const SourceId sender = i < first_heard.size()
                                ? first_heard[i]
                                : ids[rng.index(ids.size())];
    const double sender_ts = rng.uniform(0.0, 50.0);
    SessionMessage::Echoes echoes;
    if (rng.index(3) != 0) {
      // Echo for us, sometimes with a pathological hold time to exercise
      // the clamp in both implementations.
      echoes[self] = SessionMessage::Echo{rng.uniform(0.0, t),
                                          rng.uniform(0.0, t + 10.0)};
    }
    q.schedule_at(t, [&, sender, sender_ts, echoes] {
      SessionMessage msg(sender, sender_ts, {}, echoes);
      est.on_session_message(msg, self);
      ref.on_session_message(msg, self, q.now());
      if (rotation > 0) {
        expect_same_echoes(est.build_echoes(rotation),
                           ref.build_echoes(q.now(), rotation));
      }
    });
  }
  q.schedule_at(t + 1.0, [&] {
    // Per-peer estimates match the reference exactly (bit-for-bit); the
    // probes include ids between and beyond the heard ones.
    std::vector<SourceId> probes = ids;
    for (const SourceId id : ids) probes.push_back(id + 1);
    probes.push_back(self);
    for (const SourceId peer : probes) {
      const auto got = est.distance(peer);
      const auto want = ref.estimates.find(peer);
      if (want == ref.estimates.end()) {
        EXPECT_FALSE(got.has_value()) << "peer " << peer;
      } else {
        ASSERT_TRUE(got.has_value()) << "peer " << peer;
        EXPECT_DOUBLE_EQ(*got, want->second) << "peer " << peer;
      }
    }
    // The full echo table we would send next matches entry-for-entry.
    expect_same_echoes(est.build_echoes(), ref.build_echoes(q.now()));
  });
  q.run();
  EXPECT_EQ(est.peers_heard(), ref.peers.size());
}

TEST(DistanceEstimatorTest, MatchesMapBasedReferenceOnRecordedExchange) {
  std::vector<SourceId> small(12);
  std::iota(small.begin(), small.end(), SourceId{0});
  {
    SCOPED_TRACE("ids 0..11, random order");
    replay_against_reference(small, false, 0);
  }
  {
    SCOPED_TRACE("Source-IDs at and above 2^16");
    replay_against_reference({65536, 65537, 70000, 1u << 20, 0x7FFFFFFFu,
                              0xFFFFFFF0u, 0xFFFFFFFEu, 3, 65535, 123456789},
                             false, 0);
  }
  {
    SCOPED_TRACE("peers first heard in descending order");
    replay_against_reference({90, 80, 70, 60, 50, 40, 30, 20, 10, 1}, true,
                             0);
  }
  {
    SCOPED_TRACE("echo rotation across inserts");
    std::vector<SourceId> many(24);
    for (std::size_t i = 0; i < many.size(); ++i) {
      many[i] = static_cast<SourceId>(7 * i + 1);
    }
    replay_against_reference(many, false, 5);
  }
}

// --- End-to-end: agents exchanging real session messages --------------------

TEST(SessionIntegrationTest, EstimatesConvergeToOracleOnChain) {
  SrmConfig cfg;
  cfg.distance_mode = DistanceMode::kEstimated;
  cfg.session.enabled = false;  // messages sent manually below

  auto topo = topo::make_chain(5);
  harness::SimSession s(std::move(topo), {0, 1, 2, 3, 4},
                        {cfg, /*seed=*/7, /*group=*/1});

  // Two full rounds of session messages so everyone has echoed everyone.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < s.member_count(); ++i) {
      s.agent(i).send_session_message();
      s.queue().run();
    }
  }

  for (std::size_t i = 0; i < s.member_count(); ++i) {
    for (std::size_t j = 0; j < s.member_count(); ++j) {
      if (i == j) continue;
      const double est = s.agent(i).distance_to(s.agent(j).id());
      const double oracle =
          s.network().distance(s.agent(i).node(), s.agent(j).node());
      EXPECT_NEAR(est, oracle, 1e-9) << i << " -> " << j;
    }
  }
}

TEST(SessionIntegrationTest, EchoRotationStillConvergesToOracle) {
  // With echoes capped at 2 peers per session message, full coverage takes
  // more rounds, but every pair still converges to the oracle distance.
  SrmConfig cfg;
  cfg.distance_mode = DistanceMode::kEstimated;
  cfg.session.enabled = false;  // messages sent manually below
  cfg.session.echo_rotation = 2;

  auto topo = topo::make_chain(5);
  harness::SimSession s(std::move(topo), {0, 1, 2, 3, 4},
                        {cfg, /*seed=*/7, /*group=*/1});

  for (int round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i < s.member_count(); ++i) {
      s.agent(i).send_session_message();
      s.queue().run();
    }
  }

  for (std::size_t i = 0; i < s.member_count(); ++i) {
    for (std::size_t j = 0; j < s.member_count(); ++j) {
      if (i == j) continue;
      const double est = s.agent(i).distance_to(s.agent(j).id());
      const double oracle =
          s.network().distance(s.agent(i).node(), s.agent(j).node());
      EXPECT_NEAR(est, oracle, 1e-9) << i << " -> " << j;
    }
  }
}

TEST(SessionIntegrationTest, UnknownPeerFallsBackToDefault) {
  SrmConfig cfg;
  cfg.distance_mode = DistanceMode::kEstimated;
  cfg.default_distance = 42.0;
  auto topo = topo::make_chain(3);
  harness::SimSession s(std::move(topo), {0, 2}, {cfg, 7, 1});
  EXPECT_DOUBLE_EQ(s.agent(0).distance_to(s.agent(1).id()), 42.0);
}

TEST(SessionIntegrationTest, SessionMessagesAnnounceStreamState) {
  SrmConfig cfg;
  auto topo = topo::make_chain(3);
  harness::SimSession s(std::move(topo), {0, 1, 2}, {cfg, 7, 1});

  const PageId page{0, 0};
  s.for_each_agent([&](SrmAgent& a) { a.set_current_page(page); });
  s.agent(0).send_data(page, {1});
  s.queue().run();

  // Member 1 reports the stream in its session message; all members already
  // have the data so no new requests should result.
  s.agent(1).send_session_message();
  s.queue().run();
  const auto max0 = s.agent(2).advertised_max(StreamKey{0, page});
  ASSERT_TRUE(max0.has_value());
  EXPECT_EQ(*max0, 0u);
}

// --- Session scheduling (vat-style scaling) ---------------------------------

TEST(SessionSchedulerTest, IntervalScalesWithGroupSize) {
  SessionConfig cfg;
  cfg.bandwidth_fraction = 0.05;
  cfg.data_bandwidth_bytes = 8000.0;  // 400 B/s session budget
  cfg.min_interval = 0.0;
  SessionScheduler sched(cfg, util::Rng(1));
  const double small = sched.mean_interval(10, 100);
  const double large = sched.mean_interval(100, 100);
  EXPECT_NEAR(large / small, 10.0, 1e-9);
  // 100 members * 100 B / 400 B/s = 25 s between reports.
  EXPECT_NEAR(large, 25.0, 1e-9);
}

TEST(SessionSchedulerTest, MinIntervalFloors) {
  SessionConfig cfg;
  cfg.min_interval = 5.0;
  SessionScheduler sched(cfg, util::Rng(1));
  EXPECT_GE(sched.mean_interval(1, 1), 5.0);
}

TEST(SessionSchedulerTest, JitterStaysWithinBand) {
  SessionConfig cfg;
  cfg.min_interval = 0.0;
  SessionScheduler sched(cfg, util::Rng(1));
  const double mean = sched.mean_interval(50, 100);
  for (int i = 0; i < 200; ++i) {
    const double iv = sched.next_interval(50, 100);
    EXPECT_GE(iv, 0.5 * mean - 1e-9);
    EXPECT_LE(iv, 1.5 * mean + 1e-9);
  }
}

TEST(SessionSchedulerTest, AggregateBandwidthIndependentOfGroupSize) {
  // G members each reporting every G*B/(f*W) seconds produce f*W total.
  SessionConfig cfg;
  cfg.min_interval = 0.0;
  SessionScheduler sched(cfg, util::Rng(1));
  for (std::size_t g : {5u, 50u, 500u}) {
    const double per_member_rate = 100.0 / sched.mean_interval(g, 100);
    const double aggregate = per_member_rate * static_cast<double>(g);
    EXPECT_NEAR(aggregate, 0.05 * 8000.0, 1e-6);
  }
}

}  // namespace
}  // namespace srm
