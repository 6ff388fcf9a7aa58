// Shared scaffolding for the figure benches: scenario construction exactly
// as Sec. V describes (fresh random topology + membership + source +
// congested link per trial), quartile aggregation, and table output that
// mirrors the series each figure plots.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/loss_round.h"
#include "harness/replication.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "srm/config.h"
#include "topo/builders.h"
#include "util/flags.h"
#include "util/perf_json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace srm::bench {

// The paper's simulator settings: Sec. VII-A, "In our simulations we use a
// multiplicative factor of 3 rather than 2" for the request-timer backoff —
// with x2, a requestor's backed-off timer (at 2*C1*d) can expire before the
// repair's ~(d + D1*d + d) round trip, injecting a spurious duplicate.
inline SrmConfig paper_sim_config(const TimerParams& timers) {
  SrmConfig cfg;
  cfg.timers = timers;
  cfg.backoff_factor = 3.0;
  return cfg;
}

// One figure trial: fresh world, one loss-recovery round.
struct TrialSpec {
  net::Topology topo;
  std::vector<net::NodeId> members;
  net::NodeId source;
  harness::DirectedLink congested;
  SrmConfig config;
  std::uint64_t seed = 1;
};

inline harness::RoundResult run_trial(TrialSpec spec) {
  harness::SimSession session(std::move(spec.topo), spec.members,
                              {spec.config, spec.seed, /*group=*/1});
  harness::RoundSpec round;
  round.source_node = spec.source;
  round.congested = spec.congested;
  round.page = PageId{static_cast<SourceId>(spec.source), 0};
  return harness::run_loss_round(session, round, /*seq=*/0);
}

// Aggregates the three panels of Figs. 3/4 across trials of one x-value.
struct PanelStats {
  util::Samples requests;
  util::Samples repairs;
  util::Samples delay_rtt;  // last member's recovery delay / its RTT

  void add(const harness::RoundResult& r) {
    requests.add(static_cast<double>(r.requests));
    repairs.add(static_cast<double>(r.repairs));
    delay_rtt.add(r.last_member_delay_rtt);
  }
};

inline std::string quartile_cell(const util::Samples& s, int precision = 2) {
  if (s.empty()) return "-";
  return util::Table::num(s.median(), precision) + " [" +
         util::Table::num(s.lower_quartile(), precision) + "," +
         util::Table::num(s.upper_quartile(), precision) + "]";
}

// Picks a congested tree link whose upstream endpoint is `hops`-1 hops from
// the source (i.e. the failed edge is `hops` hops downstream), uniformly
// among candidates; throws if none exists.
inline harness::DirectedLink link_at_hops(net::Routing& routing,
                                          net::NodeId source,
                                          const std::vector<net::NodeId>& members,
                                          int hops, util::Rng& rng) {
  const auto links = harness::multicast_tree_links(routing, source, members);
  std::vector<harness::DirectedLink> at;
  for (const auto& l : links) {
    if (routing.hop_count(source, l.to) == hops) at.push_back(l);
  }
  if (at.empty()) {
    throw std::runtime_error("link_at_hops: no tree link at that depth");
  }
  return at[rng.index(at.size())];
}

inline void print_header(const std::string& title, std::uint64_t seed,
                         const std::string& method) {
  util::print_banner(std::cout, title);
  std::cout << "seed=" << seed << "\n" << method << "\n\n";
}

// --threads N from the command line: 0/absent = hardware concurrency.
// Trial *construction* (every RNG draw) stays serial in the caller, so the
// per-seed statistics are identical for every thread count and --threads 1
// reproduces the historical serial output bit-for-bit.
inline unsigned flag_threads(const util::Flags& flags) {
  const long long n = flags.get_int("threads", 0);
  return n > 0 ? static_cast<unsigned>(n) : 0u;  // <=0 = hardware concurrency
}

// Runs one batch of independently-seeded trials across the replication
// pool; results come back in spec order regardless of thread interleaving.
inline std::vector<harness::RoundResult> run_trials(
    std::vector<TrialSpec> specs, const harness::ReplicationRunner& runner) {
  return runner.map<harness::RoundResult>(
      specs.size(),
      [&specs](std::size_t i) { return run_trial(std::move(specs[i])); });
}

// Wall-clock timer + BENCH_kernel.json section for one figure sweep.
// Records wall-clock per sweep, thread count and replication throughput so
// later PRs can compare kernel performance mechanically (see EXPERIMENTS.md
// for the schema).  The JSON path is overridable with --bench-json=PATH;
// --bench-json= (empty) disables recording.
class SweepPerf {
 public:
  SweepPerf(const util::Flags& flags, const std::string& bench_name,
            unsigned threads)
      : path_(flags.get_string("bench-json", "BENCH_kernel.json")),
        json_(path_, bench_name),
        threads_(threads),
        start_(std::chrono::steady_clock::now()) {}

  void add_replications(std::size_t n) { replications_ += n; }

  // Writes the section (call once, after the sweep's tables are printed).
  void finish() {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start_;
    if (path_.empty()) return;
    json_.set("threads", static_cast<double>(threads_));
    json_.set("replications", static_cast<double>(replications_));
    json_.set("wall_seconds", wall.count());
    if (wall.count() > 0) {
      json_.set("replications_per_second", replications_ / wall.count());
    }
    json_.save();
    std::cout << "\n[perf] " << path_ << " updated: wall="
              << util::Table::num(wall.count(), 3) << "s threads=" << threads_
              << " replications=" << replications_ << "\n";
  }

 private:
  std::string path_;
  util::PerfJson json_;
  unsigned threads_;
  std::size_t replications_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace srm::bench
