// Session-message scaling: the vat-style rate adaptation of Sec. III-A and
// the hierarchical representatives of Sec. IX-A.
//
// Panel 1 (flat sessions): the mean reporting interval grows linearly with
// the group size, so the aggregate session bandwidth stays a fixed fraction
// of the data bandwidth no matter how many members there are.
//
// Panel 2 (hierarchy): on a tree of LANs, electing one representative per
// LAN cuts the session packets crossing the backbone by ~the LAN size,
// while every member still learns its distance to its representative.
//
// Panel 3 (large-group session rounds): the simulator-kernel cost of the
// O(G^2) session-message path itself.  Every member multicasts one session
// report per round (G sends, G*(G-1) deliveries, every receiver folding in
// the sender's state report and its echo table); wall-clock throughput at
// G in {50, 200, 500} is recorded into BENCH_session.json so the large-
// session fast path can be tracked across PRs (see EXPERIMENTS.md).
//
// Panel 4 (hierarchy as the primary path; ARCHITECTURE.md §12): two-level
// reporting at G in {5000, 20000, 50000} (--hierarchy-gs overrides).  Each
// run partitions a tree of ~sqrt(G) LANs into that many areas, lets the
// coordinator drive TTL-scoped local reports plus representative global
// reports, and measures sustained session messages per wall-clock second
// over two report intervals.  A flat-path baseline at G = 5000 (sampled
// senders, so its throughput is if anything overestimated) anchors the
// speedup; the bench exits non-zero if G = 20000 does not sustain at least
// 5x the flat baseline.  Results land in BENCH_session.json's `hierarchy`
// section (gated by scripts/check_bench.py); wheel-occupancy keys record
// the areas-not-members heap-growth evidence.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "srm/session_hierarchy.h"

namespace {

std::vector<std::size_t> parse_size_list(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoull(tok)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(42);
  const int rounds = static_cast<int>(flags.get_int("rounds", 5));
  const std::string json_path =
      flags.get_string("bench-json", "BENCH_session.json");

  bench::print_header("Session-message scaling (Sec. III-A, IX-A)", seed, "");

  {
    std::cout << "flat reporting: interval scales with G, aggregate "
                 "bandwidth constant\n";
    SessionConfig cfg;
    cfg.bandwidth_fraction = 0.05;
    cfg.data_bandwidth_bytes = 8000.0;
    cfg.min_interval = 0.0;
    SessionScheduler sched(cfg, util::Rng(seed));
    util::Table t({"G", "mean interval (s)", "per-member B/s",
                   "aggregate B/s", "budget B/s"});
    for (std::size_t g : {10u, 100u, 1000u, 10000u}) {
      const double iv = sched.mean_interval(g, 100);
      const double per = 100.0 / iv;
      t.add_row({util::Table::num(g), util::Table::num(iv, 2),
                 util::Table::num(per, 2),
                 util::Table::num(per * static_cast<double>(g), 1),
                 util::Table::num(0.05 * 8000.0, 1)});
    }
    t.print(std::cout);
  }

  {
    std::cout << "\nhierarchical representatives on a tree of LANs "
                 "(session packets crossing the backbone, 500 s)\n";
    util::Table t({"LANs x hosts", "members", "flat backbone rx",
                   "hier backbone rx", "reduction"});
    for (const auto& [lans, hosts] : std::vector<std::pair<int, int>>{
             {5, 5}, {10, 5}, {10, 10}}) {
      auto run = [&](bool hierarchical) -> std::uint64_t {
        auto tl = topo::make_tree_of_lans(lans, 3, hosts);
        SrmConfig cfg;
        cfg.session.enabled = false;  // both arms drive reporting below
        if (hierarchical) {
          cfg.hierarchy.enabled = true;
          cfg.hierarchy.local_ttl = 2;
          cfg.hierarchy.report_interval = 10.0;
          cfg.hierarchy.areas = static_cast<std::uint32_t>(lans);
        }
        harness::SimSession session(std::move(tl.topo), tl.workstations,
                                    {cfg, seed, 1});
        std::uint64_t backbone_rx = 0;
        session.network().set_delivery_observer(
            [&](const net::Packet& p, const net::DeliveryInfo& info) {
              if (message_cast<SessionMessage>(p.payload.get()) &&
                  info.hops > 2) {
                ++backbone_rx;
              }
            });
        if (hierarchical) {
          session.run_until(500.0);
        } else {
          // Flat: every member reports globally each interval (same mean
          // rate as the hierarchy's report_interval above).
          util::Rng rng(seed ^ 0xBEEF);
          for (int round = 0; round < 50; ++round) {
            session.for_each_agent([&](SrmAgent& a) {
              session.queue().schedule_after(
                  10.0 * round + rng.uniform(0.0, 10.0),
                  [&a] { a.send_session_message(); });
            });
          }
          session.queue().run_until(500.0);
        }
        return backbone_rx;
      };
      const auto flat = run(false);
      const auto hier = run(true);
      t.add_row({std::to_string(lans) + " x " + std::to_string(hosts),
                 util::Table::num(std::size_t(lans * hosts)),
                 util::Table::num(flat), util::Table::num(hier),
                 util::Table::num(static_cast<double>(flat) /
                                      std::max<std::uint64_t>(1, hier),
                                  1) +
                     "x"});
    }
    t.print(std::cout);
    std::cout << "\nExpected: the hierarchy's backbone session traffic is "
                 "cut by roughly the\nLAN size (only one representative per "
                 "LAN reports globally).\n";
  }

  {
    std::cout << "\nlarge-group session rounds: every member reports once "
                 "per round\n(G sends, G*(G-1) deliveries; estimated "
                 "distances, echoes for every peer)\n";
    util::PerfJson json(json_path, "session_scaling");
    util::Table t({"G", "nodes", "rounds", "wall (s)", "session msgs/s",
                   "deliveries/s"});
    for (std::size_t g : {std::size_t{50}, std::size_t{200},
                          std::size_t{500}}) {
      const std::size_t nodes = 2 * g;
      util::Rng rng(seed + g);
      auto members = harness::choose_members(nodes, g, rng);
      SrmConfig cfg;
      cfg.distance_mode = DistanceMode::kEstimated;
      cfg.session.enabled = false;  // rounds are driven explicitly below
      harness::SimSession session(topo::make_bounded_degree_tree(nodes, 4),
                                  members, {cfg, seed, 1});
      auto run_round = [&](double base) {
        for (std::size_t i = 0; i < session.member_count(); ++i) {
          SrmAgent& a = session.agent(i);
          session.queue().schedule_at(
              base + static_cast<double>(i) / static_cast<double>(g),
              [&a] { a.send_session_message(); });
        }
        session.queue().run();
      };
      // Warm-up round: populates every estimator's peer table so measured
      // rounds carry full-size echo tables (the steady state).
      run_round(0.0);

      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) {
        run_round(100.0 * static_cast<double>(r + 1));
      }
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;

      const double msgs = static_cast<double>(g) * rounds;
      const double deliveries = msgs * static_cast<double>(g - 1);
      t.add_row({util::Table::num(g), util::Table::num(nodes),
                 util::Table::num(static_cast<std::size_t>(rounds)),
                 util::Table::num(wall.count(), 3),
                 util::Table::num(msgs / wall.count(), 0),
                 util::Table::num(deliveries / wall.count(), 0)});
      if (!json_path.empty()) {
        const std::string p = "g" + std::to_string(g) + "_";
        json.set(p + "wall_seconds", wall.count());
        json.set(p + "messages_per_second", msgs / wall.count());
        json.set(p + "deliveries_per_second", deliveries / wall.count());
      }
    }
    t.print(std::cout);
    if (!json_path.empty()) {
      json.set("rounds", static_cast<double>(rounds));
      json.save();
      std::cout << "\n[perf] " << json_path << " updated (session_scaling)\n";
    }
  }

  {
    const std::vector<std::size_t> gs =
        parse_size_list(flags.get_string("hierarchy-gs", "5000,20000,50000"));
    if (gs.empty()) return 0;
    std::cout << "\nhierarchy as the primary path: two-level reporting at "
                 "G = 5k-50k\n(local reports TTL-scoped to the area, one "
                 "representative per area reports\nglobally; throughput "
                 "measured over two report intervals after one warm-up)\n";
    util::PerfJson json(json_path, "hierarchy");

    // Flat-path anchor at G = 5000 on the same topology family.  Only 250
    // sampled members send, so echo tables stay small and the measured
    // per-message cost UNDERestimates the true all-senders steady state —
    // the speedup below is therefore conservative.
    double flat_rate = 0.0;
    {
      const std::size_t g = 5000;
      const std::size_t senders = 250;
      harness::LanWorld world = harness::tree_of_lans_world(g);
      world.srm.hierarchy.enabled = false;
      world.srm.session.enabled = false;  // rounds are driven explicitly below
      harness::SimSession session(std::move(world.topo), world.members,
                                  {world.srm, seed, 1});
      const std::size_t stride = g / senders;
      auto run_round = [&](double base) {
        for (std::size_t i = 0; i < senders; ++i) {
          SrmAgent& a = session.agent(i * stride);
          session.queue().schedule_at(base + 0.01 * static_cast<double>(i),
                                      [&a] { a.send_session_message(); });
        }
        session.queue().run();
      };
      run_round(0.0);  // warm: estimators intern every sampled sender
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) {
        run_round(100.0 * static_cast<double>(r + 1));
      }
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;
      flat_rate = static_cast<double>(senders) * rounds / wall.count();
      std::cout << "flat baseline, G=5000 (" << senders << " sampled "
                << "senders x " << rounds << " rounds): "
                << util::Table::num(flat_rate, 0) << " msgs/s\n";
      if (!json_path.empty()) {
        json.set("flat5000_messages_per_second", flat_rate);
        json.set("flat5000_wall_seconds", wall.count());
      }
    }

    util::Table t({"G", "areas", "msgs (2 iv)", "wall (s)", "msgs/s",
                   "wheel buckets", "wheel items", "vs flat5000"});
    double g20000_rate = 0.0;
    for (std::size_t g : gs) {
      harness::LanWorld world = harness::tree_of_lans_world(g);
      const SrmConfig& cfg = world.srm;
      const std::size_t areas = cfg.hierarchy.areas;
      harness::SimSession session(std::move(world.topo), world.members,
                                  {cfg, seed, 1});
      const SessionHierarchy& hier = *session.hierarchy();

      session.run_until(cfg.hierarchy.report_interval);  // warm-up interval
      // Heap-occupancy evidence: every member holds a pending report, yet
      // live heap entries stay bounded by areas x wheel buckets.
      const std::size_t buckets = hier.pending_wheel_buckets();
      const std::size_t items = hier.pending_wheel_items();
      const std::uint64_t sent0 =
          hier.local_reports_sent() + hier.global_reports_sent();

      const auto start = std::chrono::steady_clock::now();
      session.run_until(3.0 * cfg.hierarchy.report_interval);
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;
      const double msgs = static_cast<double>(
          hier.local_reports_sent() + hier.global_reports_sent() - sent0);
      const double rate = msgs / wall.count();
      if (g == 20000) g20000_rate = rate;
      t.add_row({util::Table::num(g), util::Table::num(areas),
                 util::Table::num(msgs, 0), util::Table::num(wall.count(), 3),
                 util::Table::num(rate, 0), util::Table::num(buckets),
                 util::Table::num(items),
                 util::Table::num(rate / flat_rate, 1) + "x"});
      if (!json_path.empty()) {
        const std::string p = "g" + std::to_string(g) + "_";
        json.set(p + "messages_per_second", rate);
        json.set(p + "wall_seconds", wall.count());
        json.set(p + "areas", static_cast<double>(areas));
        json.set(p + "wheel_buckets", static_cast<double>(buckets));
        json.set(p + "wheel_items", static_cast<double>(items));
      }
    }
    t.print(std::cout);
    if (!json_path.empty()) {
      if (g20000_rate > 0.0) {
        json.set("speedup_vs_flat5000", g20000_rate / flat_rate);
      }
      json.save();
      std::cout << "\n[perf] " << json_path << " updated (hierarchy)\n";
    }
    if (g20000_rate > 0.0 && g20000_rate < 5.0 * flat_rate) {
      std::cout << "FAIL: hierarchy at G=20000 sustained "
                << util::Table::num(g20000_rate / flat_rate, 2)
                << "x the flat G=5000 path (< 5x required)\n";
      return 1;
    }
  }
  return 0;
}
