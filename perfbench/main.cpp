// srm_perfbench: the benchmark program of the SRM reproduction.
//
//   srm_perfbench --workload NAME --seed N --seconds S --mode plain|traced
//                 [--spans-out PATH]
//
// Runs one workload as repeated closed-loop passes (each pass builds its
// world from the seed, runs it, and tears it down) and prints one JSON
// object on stdout: the metrics, the operations attempted and failed, and
// the correctness errors found.  run.py builds this program, runs it and
// turns that object into the benchmark's result line; see README.md for
// the workloads and what every metric means.
//
// Workloads (all inputs are generated here from --seed):
//   fig3_sweep         Fig. 3 worlds: random labeled trees, N = 10..100,
//                      one drop per world, fixed timers.
//   burst_stream       eight worlds per pass, each a 1500-node degree-4
//                      tree, 300 members, 8 sources x 10 packets; scripted
//                      drops of every 4th packet per source plus a keyed
//                      Gilbert-Elliott chain; sequential kernel.
//   burst_stream_pdes  the same inputs on the parallel kernel (11 regions,
//                      one worker; see kPdesThreads).
//   hier_5k            5000 members on 71 LANs, hierarchical session
//                      reports, estimated distances, no data.
//
// Modes.  plain: one untraced timed pass (the peak resident set is read
// after it), an untimed check pass (sequential kernel, srm-traced, fed to
// the recovery invariant checker; none on hier_5k), then more untraced
// timed passes until --seconds have elapsed (at least three in all).
// traced: the same up to half the budget (at least two timed passes), then
// passes with every trace category on, feeding SpanSink, until the budget
// is spent (at least one).  Every pass's simulated outcome must equal the
// first's exactly; the parallel workload's must also equal the sequential
// check pass.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/checker.h"
#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "net/drop_policy.h"
#include "net/routing.h"
#include "span_sink.h"
#include "srm/config.h"
#include "srm/messages.h"
#include "srm/session_hierarchy.h"
#include "topo/builders.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace srm;
using perfbench::SpanSink;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kMaskChecker =
    static_cast<std::uint32_t>(trace::Category::kSrm) |
    static_cast<std::uint32_t>(trace::Category::kFault);

// --- workload sizes ---------------------------------------------------------
constexpr int kFig3TrialsPerSize = 40;  // 10 sizes -> 400 worlds per pass
// Checker deadline for every Fig. 3 loss.  Links take 1 s, so on a 30-hop
// tree a request timer alone may wait (C1 + C2) * d = 120 s.
constexpr double kRecoveryDeadline = 1000.0;
constexpr double kDrained = std::numeric_limits<double>::infinity();
// The burst worlds have no deadline: Gilbert-Elliott also drops requests
// and repairs, and after k lost requests a member waits 3^k times as long
// (one 40-packet world: 141 of 26411 member losses took 100-287 s; one loss
// of seed 4242 took over 1000 s).  Every world runs until its queue drains,
// so the checker still flags any loss that is never recovered.
constexpr double kBurstDeadline = kDrained;
constexpr std::size_t kBurstNodes = 1500;
constexpr std::size_t kBurstMembers = 300;
constexpr std::size_t kBurstSources = 8;
constexpr std::size_t kBurstPackets = 10;  // per source and world
constexpr std::uint64_t kBurstWorlds = 8;   // per pass
constexpr std::uint32_t kBurstRegions = 11;
// Workers for burst_stream_pdes.  With more than one the run corrupts the
// heap now and then: net::MessagePool free lists are single-threaded, but
// the last reference to a pooled request or repair is often dropped by the
// region worker that fires the last delivery of a remote chain.
constexpr unsigned kPdesThreads = 1;
// G members on a tree of ~sqrt(G) LANs, one area per LAN, as the hierarchy
// panel of bench/session_scaling.cpp builds them.
constexpr std::size_t kHierMembers = 5000;
constexpr double kHierInterval = 10.0;
constexpr std::size_t kHierSampleStride = 50;  // distance-coverage sample

// --- host probes ------------------------------------------------------------
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Heap bytes in use (all malloc arenas, mmapped chunks included).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// Peak resident set of this process, MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// Host-speed probe.  On a shared host the simulator's speed drifts by tens
// of percent over minutes, as neighbours come and go.  The probe is a fixed
// workload that uses none of the simulator's code: a compute part (a
// binary-heap event loop with small allocations) and a memory part (a
// dependent walk through a 64 MB random cycle).  Compute-bound workloads
// slow with the first, hier_5k with the second, so the probe reports the
// geometric mean of the two, in seconds.  Every host time is scaled by
// kProbeRefSeconds / probe into seconds on a reference host whose probe
// reads kProbeRefSeconds (about the median on a shared 4-vCPU Xeon VM).
constexpr double kProbeRefSeconds = 0.04;

double speed_probe() {
  static const std::vector<std::uint32_t> cycle = [] {
    const std::uint32_t n = 1u << 24;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    util::Rng rng(11);
    rng.shuffle(order);
    std::vector<std::uint32_t> next(n);
    for (std::uint32_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    return next;
  }();
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  std::vector<std::pair<double, std::uint64_t>> heap;
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks(64);
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.emplace_back(static_cast<double>(x % 1000003), x);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      acc += heap.back().second;
      heap.pop_back();
    }
    blocks[i & 63] = std::make_unique<std::uint64_t[]>(4 + (x & 15));
    blocks[i & 63][0] = acc;
  }
  const double compute_s = since(t0);
  const auto t1 = Clock::now();
  std::uint32_t at = static_cast<std::uint32_t>(acc) & (cycle.size() - 1);
  for (int i = 0; i < 300000; ++i) at = cycle[at];
  const double memory_s = since(t1);
  volatile std::uint32_t sink = at;
  (void)sink;
  return std::sqrt(compute_s * memory_s);
}

SrmConfig paper_config(std::size_t group_size) {
  // Sec. V fixed timers; Sec. VII-A's x3 request backoff, as the figure
  // benches use.
  SrmConfig cfg;
  cfg.timers = paper_fixed_params(group_size);
  cfg.backoff_factor = 3.0;
  return cfg;
}

bool within_one_percent(std::optional<double> estimate, double truth) {
  return estimate && std::isfinite(truth) &&
         std::abs(*estimate - truth) <= 0.01 * truth;
}

// --- what a pass measures ---------------------------------------------------

// The simulated outcome: a pure function of the inputs, so it must repeat
// exactly from pass to pass and between the two kernels.
struct SimOutcome {
  std::uint64_t operations = 0;  // worlds (fig3), member losses, or members
  std::uint64_t failed = 0;
  std::uint64_t events = 0;      // kernel events in the measured phase
  net::NetworkStats net;         // measured phase
  std::uint64_t requests = 0, repairs = 0;
  std::uint64_t dup_requests = 0, dup_repairs = 0;
  std::uint64_t losses = 0;         // distinct ADUs some member lost
  std::uint64_t member_losses = 0;  // (member, ADU) loss detections
  std::uint64_t recoveries = 0;
  util::Samples recovery_rtt;       // per member recovery, in its RTT
  std::uint64_t pairs = 0, pairs_covered = 0;  // distance coverage sample
  std::uint64_t local_reports = 0, global_reports = 0;
  std::uint64_t wheel_buckets = 0, wheel_items = 0;
  std::uint64_t agents = 0, peers_heard_sum = 0, peers_heard_max = 0;
  double virtual_end = 0.0;
  sim::ParallelKernel::RunStats pdes;  // zero on the sequential kernel
};

// Every exactly-compared field, by name.  `with_pdes` adds the parallel
// kernel's own counters, which the sequential reference lacks.
std::vector<std::pair<std::string, double>> fingerprint(const SimOutcome& s,
                                                        bool with_pdes) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto q = [&s](double p) {
    return s.recovery_rtt.empty() ? 0.0 : s.recovery_rtt.quantile(p);
  };
  const std::vector<double>& rtt = s.recovery_rtt.values();
  std::vector<std::pair<std::string, double>> f = {
      {"operations", d(s.operations)},
      {"failed", d(s.failed)},
      {"sim.events", d(s.events)},
      {"net.multicasts", d(s.net.multicasts_sent)},
      {"net.unicasts", d(s.net.unicasts_sent)},
      {"net.link_tx", d(s.net.link_transmissions)},
      {"net.deliveries", d(s.net.deliveries)},
      {"net.drops", d(s.net.drops)},
      {"net.ttl_prunes", d(s.net.ttl_prunes)},
      {"srm.requests", d(s.requests)},
      {"srm.repairs", d(s.repairs)},
      {"srm.dup_requests", d(s.dup_requests)},
      {"srm.dup_repairs", d(s.dup_repairs)},
      {"losses", d(s.losses)},
      {"member_losses", d(s.member_losses)},
      {"recoveries", d(s.recoveries)},
      {"recovery samples", d(rtt.size())},
      {"recovery_rtt sum", std::accumulate(rtt.begin(), rtt.end(), 0.0)},
      {"recovery_rtt_p50", q(0.5)},
      {"recovery_rtt_p99", q(0.99)},
      {"coverage pairs", d(s.pairs)},
      {"coverage hits", d(s.pairs_covered)},
      {"hierarchy local", d(s.local_reports)},
      {"hierarchy global", d(s.global_reports)},
      {"wheel buckets", d(s.wheel_buckets)},
      {"wheel items", d(s.wheel_items)},
      {"peers heard", d(s.peers_heard_sum)},
      {"peers heard max", d(s.peers_heard_max)},
      {"virtual end", s.virtual_end},
  };
  if (with_pdes) {
    f.push_back({"pdes.windows", d(s.pdes.windows)});
    f.push_back({"pdes.region_events", d(s.pdes.region_events)});
    f.push_back({"pdes.global_events", d(s.pdes.global_events)});
    f.push_back({"pdes.messages", d(s.pdes.messages)});
  }
  return f;
}

// Host-side costs of one pass (seconds unless named otherwise).
struct HostTimes {
  // kProbeRefSeconds over the mean of the probes taken just before and
  // just after the pass: multiplies a host time into reference seconds.
  double speed = 1.0;
  double probe_s = 0.0;   // the probe taken right after the pass
  double setup_s = 0.0;   // start -> first kernel event
  double run_s = 0.0;     // measured phase
  double topo_s = 0.0;    // topo::make_*
  double routing_s = 0.0; // net::Routing calls made by set-up
  double ctor_s = 0.0;    // harness::SimSession constructor
  double cpu_s = 0.0;     // process CPU seconds during the measured phase
  double heap_bytes = 0.0;  // heap added by building + running the session
  std::vector<double> round_us;  // fig3: one harness::run_loss_round each
};

// What a traced pass's SpanSink saw.
struct TraceStats {
  std::uint64_t records = 0, schedules = 0, cancels = 0;
  std::uint64_t req_timer_sets = 0, req_sends = 0, backoffs = 0;
  std::uint64_t rep_timer_sets = 0, rep_suppressions = 0;
  std::array<double, SpanSink::kKindCount> span_mean_ns{};
  std::array<std::uint64_t, SpanSink::kKindCount> span_count{};
  double region_imbalance = 0.0;  // max / mean region load

  static TraceStats of(const SpanSink& sink) {
    TraceStats t;
    t.records = sink.records();
    t.schedules = sink.schedules();
    t.cancels = sink.cancels();
    t.req_timer_sets = sink.req_timer_sets();
    t.req_sends = sink.req_sends();
    t.backoffs = sink.backoffs();
    t.rep_timer_sets = sink.rep_timer_sets();
    t.rep_suppressions = sink.rep_suppressions();
    for (std::size_t k = 0; k < SpanSink::kKindCount; ++k) {
      const auto kind = static_cast<SpanSink::Kind>(k);
      t.span_mean_ns[k] = sink.span_mean_ns(kind);
      t.span_count[k] = sink.span_count(kind);
    }
    const auto& load = sink.region_load();
    const std::uint64_t total =
        std::accumulate(load.begin(), load.end(), std::uint64_t{0});
    if (total > 0) {
      const double mean =
          static_cast<double>(total) / static_cast<double>(load.size());
      t.region_imbalance =
          static_cast<double>(*std::max_element(load.begin(), load.end())) /
          mean;
    }
    return t;
  }
};

struct Pass {
  HostTimes host;
  SimOutcome sim;
  std::optional<TraceStats> trace;  // set when the pass was traced
  bool checker_ran = false;
  bool checker_ok = true;
  std::string checker_summary;  // first failing report
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string spans_out;
};

// One traced world's tracer + sink.  `mask` 0 leaves the world untraced.
struct TraceTap {
  explicit TraceTap(std::uint32_t mask, bool timed) : mask(mask), sink(timed) {
    if (mask != 0) {
      tracer.set_mask(mask);
      tracer.set_sink(&sink);
    }
  }
  void attach(harness::SimSession& session) {
    sink.set_region_map(&session.region_map().of, session.region_map().count);
    if (mask != 0) session.set_tracer(&tracer);
  }
  // Runs the recovery-invariant checker over what the sink kept.  Pass
  // +infinity as `end_of_trace` for a run that drained its queue: no loss
  // can be recovered later, so none is exempt as pending.
  void check(Pass& pass, double end_of_trace, std::size_t members,
             double deadline) {
    if ((mask & kMaskChecker) == 0) return;
    fault::CheckerOptions opts;
    opts.deadline = deadline;
    opts.storm_budget = std::max<std::size_t>(200, members * 4);
    const fault::CheckerReport report =
        fault::RecoveryInvariantChecker(opts).check(
            sink.take_checker_events(), {}, end_of_trace);
    pass.checker_ran = true;
    if (!report.passed && pass.checker_ok) {
      pass.checker_ok = false;
      pass.checker_summary = report.summary();
    }
  }
  void finish(Pass& pass, const std::string& spans_out) {
    if (mask == 0) return;
    pass.trace = TraceStats::of(sink);
    if (!spans_out.empty() && !sink.write_spans(spans_out)) {
      throw std::runtime_error("cannot write " + spans_out);
    }
  }

  std::uint32_t mask;
  SpanSink sink;
  trace::Tracer tracer;
};

void add_net(net::NetworkStats& into, const net::NetworkStats& s) {
  into.multicasts_sent += s.multicasts_sent;
  into.unicasts_sent += s.unicasts_sent;
  into.link_transmissions += s.link_transmissions;
  into.deliveries += s.deliveries;
  into.drops += s.drops;
  into.ttl_prunes += s.ttl_prunes;
}

net::NetworkStats net_delta(const net::NetworkStats& after,
                            const net::NetworkStats& before) {
  net::NetworkStats d;
  d.multicasts_sent = after.multicasts_sent - before.multicasts_sent;
  d.unicasts_sent = after.unicasts_sent - before.unicasts_sent;
  d.link_transmissions = after.link_transmissions - before.link_transmissions;
  d.deliveries = after.deliveries - before.deliveries;
  d.drops = after.drops - before.drops;
  d.ttl_prunes = after.ttl_prunes - before.ttl_prunes;
  return d;
}

// Folds every agent's AgentMetrics and estimator into the outcome.
void collect_agents(harness::SimSession& session, SimOutcome& sim) {
  session.for_each_agent([&sim](SrmAgent& a) {
    const AgentMetrics& m = a.metrics();
    sim.requests += m.requests_sent;
    sim.repairs += m.repairs_sent;
    sim.dup_requests += m.dup_requests_heard;
    sim.dup_repairs += m.dup_repairs_heard;
    sim.member_losses += m.losses_detected;
    sim.recoveries += m.recoveries;
    for (double v : m.recovery_delay_rtt.values()) sim.recovery_rtt.add(v);
    const std::uint64_t heard = a.estimator().peers_heard();
    sim.peers_heard_sum += heard;
    sim.peers_heard_max = std::max(sim.peers_heard_max, heard);
    ++sim.agents;
  });
}

// --- fig3_sweep ---------------------------------------------------------------

Pass fig3_pass(const Options& o, std::uint32_t mask) {
  Pass pass;
  TraceTap tap(mask, /*timed=*/true);
  util::Rng rng(o.seed);
  for (std::size_t n = 10; n <= 100; n += 10) {
    const SrmConfig cfg = paper_config(n);
    for (int trial = 0; trial < kFig3TrialsPerSize; ++trial) {
      const double heap0 = heap_bytes();
      const auto t0 = Clock::now();
      net::Topology topo = topo::make_random_tree(n, rng);
      const auto t1 = Clock::now();
      std::vector<net::NodeId> members(n);
      std::iota(members.begin(), members.end(), net::NodeId{0});
      const net::NodeId source = members[rng.index(n)];
      harness::DirectedLink congested{0, 0};
      {
        net::Routing routing(topo);
        congested =
            harness::choose_congested_link(routing, source, members, rng);
      }
      const auto t2 = Clock::now();
      const std::uint64_t session_seed = rng.next_u64();
      harness::SimSession session(std::move(topo), members,
                                  {cfg, session_seed, /*group=*/1});
      const auto t3 = Clock::now();
      tap.attach(session);

      harness::RoundSpec round;
      round.source_node = source;
      round.congested = congested;
      round.page = PageId{static_cast<SourceId>(source), 0};
      bool threw = false;
      const double cpu0 = cpu_seconds();
      const auto t4 = Clock::now();
      try {
        harness::run_loss_round(session, round, /*seq=*/0);
      } catch (const std::exception&) {
        threw = true;
      }
      const double round_s = since(t4);
      pass.host.cpu_s += cpu_seconds() - cpu0;
      tap.sink.finish();

      HostTimes& h = pass.host;
      h.topo_s += std::chrono::duration<double>(t1 - t0).count();
      h.routing_s += std::chrono::duration<double>(t2 - t1).count();
      h.ctor_s += std::chrono::duration<double>(t3 - t2).count();
      h.setup_s += std::chrono::duration<double>(t3 - t0).count();
      h.run_s += round_s;
      h.round_us.push_back(round_s * 1e6);

      SimOutcome& sim = pass.sim;
      const std::uint64_t losses_before = sim.member_losses;
      const std::uint64_t recovered_before = sim.recoveries;
      collect_agents(session, sim);
      ++sim.operations;
      ++sim.losses;
      if (threw || sim.member_losses - losses_before !=
                       sim.recoveries - recovered_before) {
        ++sim.failed;
      }
      sim.events += session.queue().executed_events();
      add_net(sim.net, session.network_stats());
      sim.virtual_end += session.now();
      for (net::NodeId m : members) {
        if (m == source) continue;
        ++sim.pairs;
        const double truth = session.network().try_distance(m, source);
        if (within_one_percent(session.agent_at(m).distance_to(source),
                               truth)) {
          ++sim.pairs_covered;
        }
      }
      tap.check(pass, kDrained, n, kRecoveryDeadline);
      h.heap_bytes += heap_bytes() - heap0;
    }
  }
  tap.finish(pass, o.spans_out);
  return pass;
}

// --- burst_stream / burst_stream_pdes -----------------------------------------

// One world of the pdes_stochastic scenario of bench/pdes_kernel.cpp, with
// kBurstPackets per source; kernel_threads 0 runs it on the sequential
// kernel.  Accumulates into `pass`.
void burst_world(std::uint64_t seed, unsigned kernel_threads, TraceTap& tap,
                 Pass& pass) {
  HostTimes& h = pass.host;
  SimOutcome& sim = pass.sim;
  const double heap0 = heap_bytes();
  const auto t0 = Clock::now();
  net::Topology topo = topo::make_bounded_degree_tree(kBurstNodes, 4);
  const auto t1 = Clock::now();
  util::Rng rng(seed);
  std::vector<net::NodeId> all(kBurstNodes);
  std::iota(all.begin(), all.end(), net::NodeId{0});
  rng.shuffle(all);
  std::vector<net::NodeId> members(all.begin(), all.begin() + kBurstMembers);
  std::sort(members.begin(), members.end());
  const std::vector<net::NodeId> sources(members.begin(),
                                         members.begin() + kBurstSources);

  harness::SimSession::Options opts{paper_config(kBurstMembers), seed, 1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = kernel_threads > 0 ? kBurstRegions : 0;
  harness::SimSession session(std::move(topo), members, opts);
  const auto t2 = Clock::now();
  tap.attach(session);

  // One scripted congested link per source drops every 4th data packet of
  // that source; the keyed Gilbert-Elliott chain drops on every hop.
  util::Rng pick(seed * 2 + 1);
  const auto t3 = Clock::now();
  std::vector<harness::DirectedLink> congested;
  for (net::NodeId src : sources) {
    congested.push_back(harness::choose_congested_link(
        session.network().routing(), src, members, pick));
  }
  const auto t4 = Clock::now();
  auto drops = std::make_shared<net::CompositeDrop>();
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto id = static_cast<SourceId>(sources[s]);
    drops->add(std::make_shared<net::ScriptedLinkDrop>(
        congested[s].from, congested[s].to,
        [id](const net::Packet& p) {
          const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
          return d != nullptr && d->name().page.creator == id &&
                 d->name().seq % 4 == 0;
        },
        /*max_drops=*/std::size_t{1} << 30));
  }
  session.network().set_drop_policy(drops);
  net::GilbertElliottDrop::Params ge;
  ge.p_good_bad = 0.02;
  ge.p_bad_good = 0.5;
  session.network().set_fault_drop_policy(
      std::make_shared<net::GilbertElliottDrop>(ge, seed ^ 0x6E5EEDull));

  // Distinct lost ADUs: each agent appends to its own list (under the
  // parallel kernel an agent runs on its region's worker only).
  std::vector<std::vector<DataName>> lost(session.member_count());
  for (std::size_t i = 0; i < session.member_count(); ++i) {
    SrmAgent& agent = session.agent(i);
    SrmAgent::AppHooks hooks = agent.app_hooks();
    hooks.on_loss_detected = [list = &lost[i],
                              prev = hooks.on_loss_detected](
                                 const DataName& name) {
      list->push_back(name);
      if (prev) prev(name);
    };
    agent.set_app_hooks(std::move(hooks));
  }
  for (std::size_t s = 0; s < sources.size(); ++s) {
    SrmAgent& agent = session.agent_at(sources[s]);
    for (std::size_t i = 0; i < kBurstPackets; ++i) {
      const double when =
          1.0 + static_cast<double>(s) * 0.04 + static_cast<double>(i) * 0.25;
      session.queue().schedule_at(when, [&agent, s] {
        agent.send_data(PageId{agent.id(), 0}, Payload{std::uint8_t(s)});
      });
    }
  }
  h.setup_s += since(t0);
  h.topo_s += std::chrono::duration<double>(t1 - t0).count();
  h.ctor_s += std::chrono::duration<double>(t2 - t1).count();
  h.routing_s += std::chrono::duration<double>(t4 - t3).count();

  const double cpu0 = cpu_seconds();
  const auto t5 = Clock::now();
  sim.events += session.run();
  h.run_s += since(t5);
  h.cpu_s += cpu_seconds() - cpu0;
  tap.sink.finish();

  add_net(sim.net, session.network_stats());
  sim.virtual_end += session.now();
  if (session.kernel() != nullptr) {
    const sim::ParallelKernel::RunStats& k = session.kernel()->total_stats();
    sim.pdes.region_events += k.region_events;
    sim.pdes.global_events += k.global_events;
    sim.pdes.windows += k.windows;
    sim.pdes.global_phases += k.global_phases;
    sim.pdes.messages += k.messages;
  }
  collect_agents(session, sim);
  std::vector<DataName> names;
  for (const auto& l : lost) names.insert(names.end(), l.begin(), l.end());
  std::sort(names.begin(), names.end());
  sim.losses += static_cast<std::uint64_t>(
      std::unique(names.begin(), names.end()) - names.begin());
  for (net::NodeId m : members) {
    for (net::NodeId src : sources) {
      if (m == src) continue;
      ++sim.pairs;
      const double truth = session.network().try_distance(m, src);
      if (within_one_percent(session.agent_at(m).distance_to(src), truth)) {
        ++sim.pairs_covered;
      }
    }
  }
  h.heap_bytes += heap_bytes() - heap0;
  tap.check(pass, kDrained, kBurstMembers, kBurstDeadline);
}

// kBurstWorlds independent worlds, seeds derived from the workload seed:
// averaging over them keeps a pass's work nearly seed-independent.
Pass burst_pass(const Options& o, unsigned kernel_threads, std::uint32_t mask) {
  Pass pass;
  // Declared before the sessions: agents emit cancel records while a
  // session tears down.
  TraceTap tap(mask, /*timed=*/kernel_threads == 0);
  for (std::uint64_t w = 0; w < kBurstWorlds; ++w) {
    burst_world(o.seed * kBurstWorlds + w, kernel_threads, tap, pass);
  }
  // Operations: (member, ADU) losses; one fails if never recovered.
  SimOutcome& sim = pass.sim;
  sim.operations = sim.member_losses;
  sim.failed = sim.member_losses > sim.recoveries
                   ? sim.member_losses - sim.recoveries
                   : 0;
  tap.finish(pass, o.spans_out);
  return pass;
}

// --- hier_5k --------------------------------------------------------------------

Pass hier_pass(const Options& o, std::uint32_t mask) {
  Pass pass;
  HostTimes& h = pass.host;
  SimOutcome& sim = pass.sim;
  TraceTap tap(mask, /*timed=*/true);
  const double heap0 = heap_bytes();
  const auto t0 = Clock::now();
  const auto areas = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(kHierMembers))));
  topo::TreeOfLans tl = topo::make_tree_of_lans(
      areas, 4, (kHierMembers + areas - 1) / areas);
  const auto t1 = Clock::now();
  const std::vector<net::NodeId> members(
      tl.workstations.begin(), tl.workstations.begin() + kHierMembers);
  SrmConfig cfg;
  cfg.distance_mode = DistanceMode::kEstimated;
  cfg.hierarchy.enabled = true;
  cfg.hierarchy.local_ttl = 2;
  cfg.hierarchy.report_interval = kHierInterval;
  cfg.hierarchy.areas = static_cast<std::uint32_t>(areas);
  harness::SimSession session(std::move(tl.topo), members, {cfg, o.seed, 1});
  h.setup_s = since(t0);
  h.topo_s = std::chrono::duration<double>(t1 - t0).count();
  h.ctor_s = h.setup_s - h.topo_s;
  SessionHierarchy& hier = *session.hierarchy();

  session.run_until(kHierInterval);  // warm-up interval, not measured
  sim.wheel_buckets = hier.pending_wheel_buckets();
  sim.wheel_items = hier.pending_wheel_items();
  std::vector<std::uint64_t> sent_before(session.member_count());
  for (std::size_t i = 0; i < session.member_count(); ++i) {
    const SrmAgent& a = session.agent(i);
    sent_before[i] = hier.local_reports_sent(a) + hier.global_reports_sent(a);
  }
  const std::uint64_t local0 = hier.local_reports_sent();
  const std::uint64_t global0 = hier.global_reports_sent();
  const net::NetworkStats net0 = session.network_stats();
  tap.attach(session);  // only the measured phase is traced

  const double cpu0 = cpu_seconds();
  const auto t2 = Clock::now();
  sim.events = session.run_until(3.0 * kHierInterval);
  h.run_s = since(t2);
  h.cpu_s = cpu_seconds() - cpu0;
  tap.sink.finish();
  h.heap_bytes = heap_bytes() - heap0;

  sim.net = net_delta(session.network_stats(), net0);
  sim.virtual_end = session.now();
  sim.local_reports = hier.local_reports_sent() - local0;
  sim.global_reports = hier.global_reports_sent() - global0;
  collect_agents(session, sim);
  // Operations: members; one fails if it sent no report all phase.
  sim.operations = session.member_count();
  for (std::size_t i = 0; i < session.member_count(); ++i) {
    const SrmAgent& a = session.agent(i);
    if (hier.local_reports_sent(a) + hier.global_reports_sent(a) ==
        sent_before[i]) {
      ++sim.failed;
    }
  }

  // Distance coverage over a member sample: each sampled member paired
  // with its representative and with the next member of its area.
  std::map<std::uint32_t, std::vector<std::size_t>> by_area;
  for (std::size_t i = 0; i < session.member_count(); ++i) {
    by_area[hier.area_of(session.agent(i))].push_back(i);
  }
  net::Routing truth(session.topology());
  for (std::size_t i = 0; i < session.member_count(); i += kHierSampleStride) {
    SrmAgent& a = session.agent(i);
    const auto& area = by_area[hier.area_of(a)];
    const std::size_t slot =
        std::find(area.begin(), area.end(), i) - area.begin();
    std::vector<SourceId> peers;
    const SourceId rep = hier.representative_of(a);
    if (rep != a.id()) peers.push_back(rep);
    if (area.size() > 1) {
      peers.push_back(session.agent(area[(slot + 1) % area.size()]).id());
    }
    for (SourceId p : peers) {
      ++sim.pairs;
      const double d = truth.try_distance(a.node(), static_cast<net::NodeId>(p));
      if (within_one_percent(a.estimator().distance(p), d)) {
        ++sim.pairs_covered;
      }
    }
  }
  tap.check(pass, session.now(), session.member_count(), kRecoveryDeadline);
  tap.finish(pass, o.spans_out);
  return pass;
}

// --- passes and results -----------------------------------------------------

Pass run_pass(const Options& o, unsigned kernel_threads, std::uint32_t mask) {
  if (o.workload == "fig3_sweep") return fig3_pass(o, mask);
  if (o.workload == "hier_5k") return hier_pass(o, mask);
  return burst_pass(o, kernel_threads, mask);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  util::Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

template <typename Fn>
std::vector<double> each(const std::vector<Pass>& passes, Fn fn) {
  std::vector<double> out;
  for (const Pass& p : passes) out.push_back(fn(p));
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
};

int run(const Options& o) {
  const bool pdes = o.workload == "burst_stream_pdes";
  const unsigned kernel_threads = pdes ? kPdesThreads : 0;
  const std::uint32_t full = trace::kMaskAll;
  std::vector<std::string> errors;

  const auto start = Clock::now();
  double peak_mb = 0.0;
  double last_probe = 0.0;  // taken after the previous pass
  const auto next = [&](unsigned threads, std::uint32_t mask) {
    Pass p = run_pass(o, threads, mask);
    // The first pass ran alone in a fresh process, so the peak resident set
    // after it is the workload's own (and holds no probe table); later
    // passes only add allocator fragmentation.
    if (last_probe == 0.0) peak_mb = peak_rss_mb();
    p.host.probe_s = speed_probe();
    const double probe = last_probe == 0.0
                             ? p.host.probe_s
                             : 0.5 * (last_probe + p.host.probe_s);
    p.host.speed = kProbeRefSeconds / probe;
    last_probe = p.host.probe_s;
    return p;
  };
  std::vector<Pass> timed;
  timed.push_back(next(kernel_threads, 0));

  // Check pass: sequential, srm-traced, fed to the invariant checker.  It
  // is also the sequential reference the parallel workload must match.
  std::optional<Pass> check;
  if (o.workload != "hier_5k") check = next(0, kMaskChecker);

  std::vector<Pass> traced;
  const auto repeat = [&](std::vector<Pass>& into, double budget,
                          std::size_t min_passes, std::uint32_t mask) {
    while (into.size() < min_passes || since(start) < budget) {
      into.push_back(next(kernel_threads, mask));
    }
  };
  if (o.traced) {
    repeat(timed, o.seconds / 2, 2, 0);
    repeat(traced, o.seconds, 1, full);
  } else {
    repeat(timed, o.seconds, 3, 0);
  }

  // --- correctness gate ---
  const Pass& first = timed.front();
  const auto compare = [&](const Pass& p, const std::string& what,
                           bool with_pdes) {
    const auto a = fingerprint(first.sim, with_pdes);
    const auto b = fingerprint(p.sim, with_pdes);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].second != b[i].second) {
        std::ostringstream msg;
        msg.precision(17);
        msg << what << " differs on " << a[i].first << ": " << a[i].second
            << " vs " << b[i].second;
        errors.push_back(msg.str());
      }
    }
  };
  for (std::size_t i = 1; i < timed.size(); ++i) {
    compare(timed[i], "pass " + std::to_string(i), true);
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    compare(traced[i], "traced pass " + std::to_string(i), true);
  }
  if (check) {
    compare(*check, pdes ? "sequential kernel (burst_stream)" : "check pass",
            /*with_pdes=*/!pdes);
  }
  bool checker_ok = true;
  std::size_t checker_runs = 0;
  const auto checked = [&](const Pass& p) {
    if (!p.checker_ran) return;
    ++checker_runs;
    if (!p.checker_ok) {
      checker_ok = false;
      errors.push_back("recovery invariant checker failed: " +
                       p.checker_summary);
    }
  };
  if (check) checked(*check);
  for (const Pass& p : traced) checked(p);

  std::uint64_t attempted = 0, failed = 0;
  const auto count_ops = [&](const Pass& p) {
    attempted += p.sim.operations;
    failed += p.sim.failed;
  };
  if (check) count_ops(*check);
  for (const Pass& p : timed) count_ops(p);
  for (const Pass& p : traced) count_ops(p);
  if (failed > 0) {
    errors.push_back(std::to_string(failed) + " of " +
                     std::to_string(attempted) + " operations failed");
  }

  // --- metrics ---
  const SimOutcome& s = first.sim;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  // Median over passes of a host time, in reference seconds.
  const auto scaled = [](const std::vector<Pass>& passes,
                         double HostTimes::*field) {
    return median(each(passes, [field](const Pass& p) {
      return p.host.*field * p.host.speed;
    }));
  };
  const double run_s = scaled(timed, &HostTimes::run_s);
  const unsigned threads = std::max(1u, kernel_threads);
  Metrics m;
  // End to end.
  m.set("setup_s", scaled(timed, &HostTimes::setup_s), "s");
  m.set("run_s", run_s, "s");
  m.set("ns_per_delivery", median(each(timed, [](const Pass& p) {
          return p.host.run_s * p.host.speed * 1e9 /
                 static_cast<double>(p.sim.net.deliveries);
        })), "ns");
  m.set("peak_rss_mb", peak_mb, "MB");
  m.set("distance_coverage", ratio(d(s.pairs_covered), d(s.pairs)), "ratio");
  m.set("requests_per_loss", ratio(d(s.requests), d(s.losses)), "ratio");
  m.set("repairs_per_loss", ratio(d(s.repairs), d(s.losses)), "ratio");
  m.set("recovery_rtt_p50",
        s.recovery_rtt.empty() ? 0.0 : s.recovery_rtt.quantile(0.5), "rtt");
  m.set("recovery_rtt_p99",
        s.recovery_rtt.empty() ? 0.0 : s.recovery_rtt.quantile(0.99), "rtt");
  m.set("unrecovered_frac", ratio(d(failed), d(attempted)), "ratio");
  // The host as measured: unscaled times and the probe itself.
  m.set("host.probe_s", median(each(timed, [](const Pass& p) {
          return p.host.probe_s;
        })), "s");
  m.set("host.unscaled_setup_s", median(each(timed, [](const Pass& p) {
          return p.host.setup_s;
        })), "s");
  m.set("host.unscaled_run_s", median(each(timed, [](const Pass& p) {
          return p.host.run_s;
        })), "s");
  // Per layer.
  m.set("topo.build_s", scaled(timed, &HostTimes::topo_s), "s");
  m.set("net.routing_s", scaled(timed, &HostTimes::routing_s), "s");
  m.set("net.deliveries", d(s.net.deliveries), "count");
  m.set("net.link_tx", d(s.net.link_transmissions), "count");
  m.set("net.drops", d(s.net.drops), "count");
  m.set("net.ttl_prunes", d(s.net.ttl_prunes), "count");
  m.set("net.fanout",
        ratio(d(s.net.deliveries), d(s.net.multicasts_sent + s.net.unicasts_sent)),
        "ratio");
  m.set("harness.session_ctor_s", scaled(timed, &HostTimes::ctor_s), "s");
  m.set("harness.bytes_per_member", median(each(timed, [](const Pass& p) {
          return p.host.heap_bytes / static_cast<double>(p.sim.agents);
        })), "B");
  util::Samples rounds;
  for (const Pass& p : timed) {
    for (double us : p.host.round_us) rounds.add(us * p.host.speed);
  }
  m.set("harness.loss_round_us_p50", rounds.empty() ? 0.0 : rounds.quantile(0.5),
        "us");
  m.set("harness.loss_round_us_p99",
        rounds.empty() ? 0.0 : rounds.quantile(0.99), "us");
  m.set("sim.events", d(s.events), "count");
  m.set("sim.ns_per_event", ratio(run_s * 1e9, d(s.events)), "ns");
  const std::uint64_t pdes_events = s.pdes.region_events + s.pdes.global_events;
  m.set("sim.pdes.windows", d(s.pdes.windows), "count");
  m.set("sim.pdes.events_per_window",
        ratio(d(s.pdes.region_events), d(s.pdes.windows)), "count");
  m.set("sim.pdes.global_share", ratio(d(s.pdes.global_events), d(pdes_events)),
        "ratio");
  m.set("sim.pdes.mail_per_event", ratio(d(s.pdes.messages), d(pdes_events)),
        "ratio");
  m.set("sim.pdes.cpu_util", median(each(timed, [threads](const Pass& p) {
          return p.host.cpu_s / (p.host.run_s * threads);
        })), "ratio");
  m.set("sim.wheel_buckets", d(s.wheel_buckets), "count");
  m.set("sim.wheel_items", d(s.wheel_items), "count");
  m.set("srm.requests", d(s.requests), "count");
  m.set("srm.repairs", d(s.repairs), "count");
  m.set("srm.dup_requests", d(s.dup_requests), "count");
  m.set("srm.dup_repairs", d(s.dup_repairs), "count");
  m.set("srm.estimator.peers_heard_mean",
        ratio(d(s.peers_heard_sum), d(s.agents)), "count");
  m.set("srm.estimator.peers_heard_max", d(s.peers_heard_max), "count");
  m.set("srm.hierarchy.local_reports", d(s.local_reports), "count");
  m.set("srm.hierarchy.global_reports", d(s.global_reports), "count");
  m.set("fault.checker_pass", checker_runs > 0 && checker_ok ? 1.0 : 0.0,
        "bool");
  if (!traced.empty()) {
    const TraceStats& t = *traced.front().trace;
    const double speed = traced.front().host.speed;
    m.set("sim.cancel_ratio", ratio(d(t.cancels), d(t.schedules)), "ratio");
    m.set("sim.pdes.region_imbalance", t.region_imbalance, "ratio");
    m.set("srm.req_suppress_ratio",
          t.req_timer_sets > 0 ? 1.0 - ratio(d(t.req_sends), d(t.req_timer_sets))
                               : 0.0,
          "ratio");
    m.set("srm.rep_suppress_ratio",
          ratio(d(t.rep_suppressions), d(t.rep_timer_sets)), "ratio");
    m.set("srm.backoffs", d(t.backoffs), "count");
    for (std::size_t k = 1; k < SpanSink::kKindCount; ++k) {
      const std::string name = std::string("srm.") + SpanSink::kKindNames[k];
      m.set(name + "_ns", t.span_mean_ns[k] * speed, "ns");
      m.set(name + "_calls", d(t.span_count[k]), "count");
    }
    m.set("trace.events", d(t.records), "count");
    m.set("trace.overhead",
          ratio(scaled(traced, &HostTimes::run_s), run_s) - 1.0, "ratio");
  }

  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"passes\":" << timed.size() << ",\"traced_passes\":"
      << traced.size() << ",\"kernel_threads\":" << kernel_threads
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i ? "," : "") << '"' << json_escape(errors[i]) << '"';
  }
  out << "],\"samples\":{";
  const auto samples = [&](const char* name, const std::vector<Pass>& passes,
                           double HostTimes::*field) {
    out << '"' << name << "\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      out << (i ? "," : "") << passes[i].host.*field;
    }
    out << ']';
  };
  samples("setup_s", timed, &HostTimes::setup_s);
  out << ',';
  samples("run_s", timed, &HostTimes::run_s);
  out << ',';
  samples("traced_run_s", traced, &HostTimes::run_s);
  out << ',';
  samples("probe_s", timed, &HostTimes::probe_s);
  out << ',';
  samples("speed", timed, &HostTimes::speed);
  out << "},\"metrics\":{";
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    const auto& [name, vu] = m.items[i];
    out << (i ? "," : "") << '"' << name << "\":{\"value\":" << vu.first
        << ",\"unit\":\"" << vu.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string mode = "plain";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--mode") {
        mode = value;
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else {
        throw std::invalid_argument("unknown flag: " + flag);
      }
    }
    if (o.workload != "fig3_sweep" && o.workload != "burst_stream" &&
        o.workload != "burst_stream_pdes" && o.workload != "hier_5k") {
      throw std::invalid_argument("unknown workload: " + o.workload);
    }
    if (mode != "plain" && mode != "traced") {
      throw std::invalid_argument("unknown mode: " + mode);
    }
    o.traced = mode == "traced";
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "srm_perfbench: " << e.what() << "\n";
    return 2;
  }
}
