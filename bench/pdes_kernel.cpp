// pdes_kernel — throughput bench for the conservative parallel (PDES)
// kernel: one giant scenario (bounded-degree tree, hundreds of members,
// several concurrent sources, scripted losses on every source's tree) run
// to completion on the sequential kernel and then on the region-partitioned
// kernel at increasing worker counts.
//
// Runs two panels: the scripted-loss scenario ("pdes_kernel" section) and
// the same scenario with a keyed Gilbert-Elliott chain in the fault policy
// slot ("pdes_stochastic" section) so every hop performs stochastic draws —
// the load profile the counter-based RNG keying exists for.  Throughput
// keys (*_per_second, speedup*) are machine-dependent and exempt from the
// check_bench gate; the deterministic keys (events_total,
// virtual_makespan_us, stochastic_drops_total) must not drift, because the
// parallel kernel's whole claim is that the event order is equivalent to
// the sequential kernel's.
//
// --pdes-verify additionally diffs the aggregate network statistics and
// final virtual clock of every parallel run against the sequential run and
// exits non-zero on any mismatch.
//
// Flags:
//   --nodes=N          topology size                      [1500]
//   --members=G        session size                       [300]
//   --sources=S        concurrent sources                 [8]
//   --packets=P        data packets per source            [40]
//   --kernel-regions=R region count (0 = auto)            [0]
//   --max-threads=T    largest worker count measured      [4]
//   --pdes-verify      fail on any sequential/parallel stat mismatch
//   --bench-json=PATH  perf JSON (empty = disable)        [BENCH_kernel.json]
//   --seed=K           RNG seed                           [7]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/drop_policy.h"
#include "srm/messages.h"

namespace {

using namespace srm;

struct RunOutcome {
  std::size_t events = 0;
  double virtual_end = 0.0;
  double wall_seconds = 0.0;
  net::NetworkStats stats;
  std::uint32_t regions = 1;
  double lookahead = 0.0;
};

struct Scenario {
  net::Topology topo;
  std::vector<net::NodeId> members;
  std::vector<net::NodeId> sources;
  SrmConfig config;
  std::uint64_t seed = 7;
  std::size_t packets = 40;
  std::uint32_t kernel_regions = 0;
  // Adds a keyed Gilbert-Elliott chain in the fault policy slot on top of
  // the scripted drops: every hop of every walk performs stochastic draws,
  // which is the load profile the counter-based RNG keying exists for.
  bool stochastic = false;
};

// Runs the scenario to completion on one kernel configuration.
// kernel_threads == 0 is the sequential reference.  Every RNG draw that
// shapes the scenario (member placement, congested links) happens in the
// caller, identically for every configuration.
RunOutcome run_scenario(const Scenario& sc, unsigned kernel_threads) {
  harness::SimSession::Options opts{sc.config, sc.seed, /*group=*/1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = sc.kernel_regions;
  harness::SimSession session(net::Topology(sc.topo), sc.members, opts);

  // One scripted congested link per source, dropping every 4th data packet
  // of that source once.  The budget never binds (max_drops is huge), so
  // the drop set is a pure function of the packet stream and stays
  // deterministic under concurrent region walks.
  auto drops = std::make_shared<net::CompositeDrop>();
  util::Rng pick(sc.seed * 2 + 1);
  for (net::NodeId src : sc.sources) {
    const auto congested = harness::choose_congested_link(
        session.network().routing(), src, sc.members, pick);
    const auto id = static_cast<SourceId>(src);
    drops->add(std::make_shared<net::ScriptedLinkDrop>(
        congested.from, congested.to,
        [id](const net::Packet& p) {
          const auto* d = message_cast<DataMessage>(p.payload.get());
          return d != nullptr && d->name().page.creator == id &&
                 d->name().seq % 4 == 0;
        },
        /*max_drops=*/std::size_t{1} << 30));
  }
  session.network().set_drop_policy(drops);
  if (sc.stochastic) {
    net::GilbertElliottDrop::Params ge;
    ge.p_good_bad = 0.02;  // rare, short bursts: recovery still terminates
    ge.p_bad_good = 0.5;
    session.network().set_fault_drop_policy(
        std::make_shared<net::GilbertElliottDrop>(ge, sc.seed ^ 0x6E5EEDull));
  }

  // Staggered bursts: each source sends `packets` data packets 250 ms
  // apart, sources offset by 40 ms, all scheduled up front on the control
  // queue.
  for (std::size_t s = 0; s < sc.sources.size(); ++s) {
    SrmAgent& agent = session.agent_at(sc.sources[s]);
    for (std::size_t i = 0; i < sc.packets; ++i) {
      const double when =
          1.0 + static_cast<double>(s) * 0.04 + static_cast<double>(i) * 0.25;
      session.queue().schedule_at(when, [&agent, s] {
        agent.send_data(PageId{agent.id(), 0}, Payload{std::uint8_t(s)});
      });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  RunOutcome out;
  out.events = session.run();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.virtual_end = session.now();
  out.stats = session.network_stats();
  out.regions = session.region_map().count;
  out.lookahead = session.region_map().lookahead;
  session.network().set_drop_policy(nullptr);
  if (sc.stochastic) session.network().set_fault_drop_policy(nullptr);
  return out;
}

// Exact comparison of everything that must be event-order-equivalent.
std::vector<std::string> diff_outcomes(const RunOutcome& seq,
                                       const RunOutcome& par,
                                       unsigned threads) {
  std::vector<std::string> diffs;
  const auto diff_u64 = [&](const char* what, std::uint64_t a,
                            std::uint64_t b) {
    if (a != b) {
      diffs.push_back(std::string(what) + ": sequential " + std::to_string(a) +
                      " vs " + std::to_string(threads) + "-thread " +
                      std::to_string(b));
    }
  };
  diff_u64("multicasts", seq.stats.multicasts_sent, par.stats.multicasts_sent);
  diff_u64("unicasts", seq.stats.unicasts_sent, par.stats.unicasts_sent);
  diff_u64("link transmissions", seq.stats.link_transmissions,
           par.stats.link_transmissions);
  diff_u64("deliveries", seq.stats.deliveries, par.stats.deliveries);
  diff_u64("drops", seq.stats.drops, par.stats.drops);
  diff_u64("ttl prunes", seq.stats.ttl_prunes, par.stats.ttl_prunes);
  if (seq.virtual_end != par.virtual_end) {
    diffs.push_back("virtual end time: sequential " +
                    std::to_string(seq.virtual_end) + " vs " +
                    std::to_string(threads) + "-thread " +
                    std::to_string(par.virtual_end));
  }
  return diffs;
}

// One full panel: sequential reference, thread sweep, equivalence diffs,
// perf-JSON section.  Returns false on any sequential/parallel mismatch.
bool run_panel(const Scenario& sc, unsigned max_threads,
               const std::string& json_path, const std::string& section) {
  const RunOutcome seq = run_scenario(sc, 0);
  std::cout << "sequential: " << seq.events << " events in "
            << util::Table::num(seq.wall_seconds, 3) << "s ("
            << util::Table::num(seq.events / seq.wall_seconds / 1e6, 2)
            << " M events/s), virtual end "
            << util::Table::num(seq.virtual_end, 1) << "s, "
            << seq.stats.drops << " drops\n";

  util::Table table({"kernel threads", "regions", "events", "wall (s)",
                     "events/s", "speedup vs seq"});
  util::PerfJson json(json_path, section);
  json.set("seq_events_per_second",
           static_cast<double>(seq.events) / seq.wall_seconds);

  bool ok = true;
  std::size_t pdes_events = 0;
  double virtual_end = 0.0;
  std::uint32_t regions = 1;
  for (unsigned t = 1; t <= max_threads; t *= 2) {
    const RunOutcome par = run_scenario(sc, t);
    table.add_row({util::Table::num(static_cast<std::size_t>(t)),
                   util::Table::num(static_cast<std::size_t>(par.regions)),
                   util::Table::num(par.events),
                   util::Table::num(par.wall_seconds, 3),
                   util::Table::num(par.events / par.wall_seconds / 1e6, 2) +
                       " M",
                   util::Table::num(seq.wall_seconds / par.wall_seconds, 2) +
                       "x"});
    json.set("threads" + std::to_string(t) + "_events_per_second",
             static_cast<double>(par.events) / par.wall_seconds);
    if (t == max_threads && max_threads >= 4) {
      json.set("speedup_" + std::to_string(t) + "t",
               seq.wall_seconds / par.wall_seconds);
    }
    // The event count and virtual clock must agree across thread counts
    // (the region map is fixed); the network stats must match the
    // sequential run exactly.
    if (pdes_events == 0) {
      pdes_events = par.events;
      virtual_end = par.virtual_end;
      regions = par.regions;
    } else if (par.events != pdes_events || par.virtual_end != virtual_end) {
      std::cout << "MISMATCH across thread counts: " << par.events << " vs "
                << pdes_events << " events\n";
      ok = false;
    }
    const auto diffs = diff_outcomes(seq, par, t);
    for (const std::string& d : diffs) std::cout << "  stat " << d << "\n";
    if (!diffs.empty()) ok = false;
  }
  table.print(std::cout);

  json.set("events_total", static_cast<double>(pdes_events));
  json.set("virtual_makespan_us", virtual_end * 1e6);
  json.set("regions", static_cast<double>(regions));
  if (sc.stochastic) {
    // Keyed draws make the drop count deterministic across kernels and
    // thread counts; recorded (like events_total) for mechanical diffing.
    json.set("stochastic_drops_total", static_cast<double>(seq.stats.drops));
  }
  if (!json_path.empty()) {
    json.save();
    std::cout << "\n[perf] " << json_path << " updated (" << section
              << " section)\n";
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 1500));
  const auto member_count =
      static_cast<std::size_t>(flags.get_int("members", 300));
  const auto source_count =
      static_cast<std::size_t>(flags.get_int("sources", 8));
  const auto packets = static_cast<std::size_t>(flags.get_int("packets", 40));
  const auto kernel_regions =
      static_cast<std::uint32_t>(flags.get_int("kernel-regions", 0));
  const auto max_threads =
      static_cast<unsigned>(flags.get_int("max-threads", 4));
  const bool verify = flags.get_bool("pdes-verify", false);
  const std::uint64_t seed = flags.get_seed(7);

  Scenario sc;
  sc.seed = seed;
  sc.packets = packets;
  sc.kernel_regions = kernel_regions;
  sc.config = bench::paper_sim_config(paper_fixed_params(member_count));

  util::Rng rng(seed);
  sc.topo = topo::make_bounded_degree_tree(nodes, 4);
  std::vector<net::NodeId> all(nodes);
  for (std::size_t i = 0; i < nodes; ++i) all[i] = static_cast<net::NodeId>(i);
  rng.shuffle(all);
  sc.members.assign(all.begin(), all.begin() + static_cast<long>(member_count));
  std::sort(sc.members.begin(), sc.members.end());
  sc.sources.assign(sc.members.begin(),
                    sc.members.begin() + static_cast<long>(source_count));

  bench::print_header("pdes_kernel: parallel kernel throughput", seed,
                      std::to_string(nodes) + " nodes / " +
                          std::to_string(member_count) + " members / " +
                          std::to_string(source_count) + " sources x " +
                          std::to_string(packets) + " packets");

  const std::string path = flags.get_string("bench-json", "BENCH_kernel.json");
  bool ok = run_panel(sc, max_threads, path, "pdes_kernel");

  // Same scenario with a keyed Gilbert-Elliott chain consulted on every
  // hop: stochastic loss on all cores.  Separate section so the regression
  // gate tracks the keyed-draw overhead independently.
  std::cout << "\npdes_stochastic: scripted drops + keyed Gilbert-Elliott "
               "background loss\n";
  Scenario stoch = std::move(sc);
  stoch.stochastic = true;
  ok = run_panel(stoch, max_threads, path, "pdes_stochastic") && ok;

  if (verify) {
    std::cout << "pdes-verify: "
              << (ok ? "OK (all parallel runs match the sequential kernel)"
                     : "MISMATCH")
              << "\n";
    return ok ? 0 : 1;
  }
  if (!ok) std::cout << "warning: stat mismatch (run with --pdes-verify)\n";
  return 0;
}
