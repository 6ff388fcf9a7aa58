// google-benchmark microbenchmarks for the simulator substrate: event queue
// throughput, shortest-path tree computation, multicast fan-out, a complete
// loss-recovery round, distance-estimation updates, and the drawop codec.
// These guard the simulator's own performance (the figure sweeps run tens
// of thousands of rounds).
//
// The headline kernel numbers (ns/event, events/s, multicast deliveries/s,
// loss-round wall time) are also recorded into BENCH_kernel.json
// (--bench-json=PATH to relocate, --bench-json= to disable) so kernel
// performance can be compared across PRs; see EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/perf_json.h"

#include "harness/loss_round.h"
#include "harness/session.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/event_queue.h"
#include "topo/builders.h"
#include "harness/scenario.h"
#include "srm/adaptive.h"
#include "srm/session.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "wb/drawop.h"
#include "wb/page.h"

namespace {

using namespace srm;

// Cheapest possible sink: measures instrumentation cost, not storage cost.
class CountingSink : public trace::Sink {
 public:
  void on_event(const trace::Event&) override { ++count_; }
  std::size_t count() const { return count_; }

 private:
  std::size_t count_ = 0;
};

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    q.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// The traced variant below must never report faster than this plain run:
// both get an explicit warm-up (first iterations pay slab allocation and
// cold caches, and benchmark registration order would otherwise hand that
// cost to whichever variant runs first) and a fixed measurement window so
// the pair is compared on equal footing.
BENCHMARK(BM_EventQueueScheduleRun)
    ->Arg(1000)
    ->Arg(100000)
    ->MinWarmUpTime(0.5)
    ->MinTime(2.0);

// Same loop as BM_EventQueueScheduleRun but with sim tracing ENABLED into a
// counting sink; the delta against the plain run is the per-event cost of
// emitting schedule + fire records.  (The plain run already measures the
// compiled-in-but-disabled path, which PR acceptance bounds at <3% of the
// committed baseline.)  Registered directly after the plain run so the pair
// executes back-to-back with identical allocator and cache history — with
// another benchmark in between, heap-layout luck can swing the comparison
// by more than the tracing cost itself.
void BM_EventQueueScheduleRunTraced(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CountingSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSim));
  for (auto _ : state) {
    sim::EventQueue q;
    q.set_tracer(&tracer);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    q.run();
    benchmark::DoNotOptimize(fired);
  }
  benchmark::DoNotOptimize(sink.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRunTraced)
    ->Arg(100000)
    ->MinWarmUpTime(0.5)
    ->MinTime(2.0);

// SRM's suppressible timers make schedule/cancel/reschedule the kernel's
// second hot loop: this exercises slab + free-list reuse under churn.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::size_t fired = 0;
    std::vector<sim::EventHandle> handles(n);
    for (std::size_t i = 0; i < n; ++i) {
      handles[i] =
          q.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    // Suppress two out of three timers, then back them off (reschedule).
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 != 0) handles[i].cancel();
      if (i % 3 == 1) {
        handles[i] =
            q.schedule_at(100.0 + static_cast<double>(i % 13), [&fired] {
              ++fired;
            });
      }
    }
    q.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(100000);

void BM_SptComputation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = topo::make_bounded_degree_tree(n, 4);
  for (auto _ : state) {
    net::Routing routing(topo);
    benchmark::DoNotOptimize(routing.spt(0).dist.back());
  }
}
BENCHMARK(BM_SptComputation)->Arg(1000)->Arg(5000);

void BM_RandomTreeGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  for (auto _ : state) {
    auto t = topo::make_random_tree(n, rng);
    benchmark::DoNotOptimize(t.link_count());
  }
}
BENCHMARK(BM_RandomTreeGeneration)->Arg(100)->Arg(1000);

void BM_MulticastDelivery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = topo::make_bounded_degree_tree(n, 4);
  sim::EventQueue queue;
  net::MulticastNetwork net(queue, topo);

  class NullSink : public net::PacketSink {
   public:
    void on_receive(const net::Packet&, const net::DeliveryInfo&) override {}
  };
  std::vector<std::unique_ptr<NullSink>> sinks;
  for (net::NodeId v = 0; v < n; ++v) {
    sinks.push_back(std::make_unique<NullSink>());
    net.attach(v, sinks.back().get());
    net.join(1, v);
  }
  class Tiny : public net::Message {
   public:
    std::string describe() const override { return "tiny"; }
  };
  for (auto _ : state) {
    net::Packet p;
    p.group = 1;
    p.payload = std::make_shared<Tiny>();
    net.multicast(0, std::move(p));
    queue.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
}
// Warm-up/measurement window matched with BM_MulticastDeliveryTraced, as
// with the event-queue pair above.
BENCHMARK(BM_MulticastDelivery)
    ->Arg(100)
    ->Arg(1000)
    ->MinWarmUpTime(0.5)
    ->MinTime(2.0);

// Multicast fan-out with net tracing ENABLED (send + per-member deliver
// records) into a counting sink.
void BM_MulticastDeliveryTraced(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = topo::make_bounded_degree_tree(n, 4);
  sim::EventQueue queue;
  net::MulticastNetwork net(queue, topo);
  CountingSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kNet));
  net.set_tracer(&tracer);

  class NullSink : public net::PacketSink {
   public:
    void on_receive(const net::Packet&, const net::DeliveryInfo&) override {}
  };
  std::vector<std::unique_ptr<NullSink>> sinks;
  for (net::NodeId v = 0; v < n; ++v) {
    sinks.push_back(std::make_unique<NullSink>());
    net.attach(v, sinks.back().get());
    net.join(1, v);
  }
  class Tiny : public net::Message {
   public:
    std::string describe() const override { return "tiny"; }
  };
  for (auto _ : state) {
    net::Packet p;
    p.group = 1;
    p.payload = std::make_shared<Tiny>();
    net.multicast(0, std::move(p));
    queue.run();
  }
  benchmark::DoNotOptimize(sink.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_MulticastDeliveryTraced)
    ->Arg(1000)
    ->MinWarmUpTime(0.5)
    ->MinTime(2.0);

void BM_FullLossRecoveryRound(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  auto members = harness::choose_members(1000, g, rng);
  SrmConfig cfg;
  cfg.timers = paper_fixed_params(g);
  harness::SimSession session(topo::make_bounded_degree_tree(1000, 4),
                              members, {cfg, 11, 1});
  const net::NodeId source = members[0];
  const auto congested = harness::choose_congested_link(
      session.network().routing(), source, members, rng);
  harness::RoundSpec round;
  round.source_node = source;
  round.congested = congested;
  round.page = PageId{static_cast<SourceId>(source), 0};
  SeqNo seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        harness::run_loss_round(session, round, seq).requests);
    seq += 2;
  }
}
BENCHMARK(BM_FullLossRecoveryRound)->Arg(20)->Arg(100);

void BM_DistanceEstimatorExchange(benchmark::State& state) {
  sim::EventQueue q;
  sim::LocalClock clock(q, 0.0);
  DistanceEstimator est(clock);
  SessionMessage::Echoes echoes;
  echoes[1] = SessionMessage::Echo{0.0, 1.0};
  SourceId peer = 2;
  for (auto _ : state) {
    SessionMessage msg(peer, 0.0, {}, echoes);
    est.on_session_message(msg, 1);
    benchmark::DoNotOptimize(est.distance(peer));
    peer = 2 + (peer + 1) % 128;  // rotate through a realistic peer set
  }
}
BENCHMARK(BM_DistanceEstimatorExchange);

void BM_AdaptiveTunerRound(benchmark::State& state) {
  AdaptiveParams params;
  params.enabled = true;
  AdaptiveTuner tuner(params, 2.0, 2.0);
  std::size_t dups = 0;
  for (auto _ : state) {
    tuner.end_period(dups++ % 3);
    tuner.record_delay(1.5);
    tuner.adapt_on_timer_set(dups % 2 == 0);
    benchmark::DoNotOptimize(tuner.width());
  }
}
BENCHMARK(BM_AdaptiveTunerRound);

void BM_PageVisibleOps(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  wb::Page page(PageId{1, 0});
  for (SeqNo q = 0; q < n; ++q) {
    wb::DrawOp op;
    op.type = wb::OpType::kLine;
    op.timestamp = static_cast<double>((q * 31) % 97);
    page.apply(DataName{1, PageId{1, 0}, q}, op);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(page.visible_ops().size());
  }
}
BENCHMARK(BM_PageVisibleOps)->Arg(100)->Arg(1000);

void BM_TtlReach(benchmark::State& state) {
  const auto topo = topo::make_bounded_degree_tree(1000, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::ttl_reach(topo, 0, 8).size());
  }
}
BENCHMARK(BM_TtlReach);

void BM_DrawOpCodecRoundTrip(benchmark::State& state) {
  wb::DrawOp op;
  op.type = wb::OpType::kText;
  op.text = "the quick brown fox jumps over the lazy dog";
  op.timestamp = 123.456;
  for (auto _ : state) {
    const auto decoded = wb::decode(wb::encode(op));
    benchmark::DoNotOptimize(decoded->timestamp);
  }
}
BENCHMARK(BM_DrawOpCodecRoundTrip);

// Console output plus capture of the per-run numbers that feed
// BENCH_kernel.json.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    double real_ns_per_iteration = 0.0;
    double items_per_second = 0.0;
    std::int64_t arg = 0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Captured c;
      c.real_ns_per_iteration =
          run.iterations > 0
              ? run.real_accumulated_time * 1e9 /
                    static_cast<double>(run.iterations)
              : 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) c.items_per_second = it->second;
      runs_[run.benchmark_name()] = c;
    }
    ConsoleReporter::ReportRuns(reports);
  }

  // ns per processed item (event/delivery) for `name/arg`; 0 if missing.
  double ns_per_item(const std::string& name, std::int64_t arg) const {
    const Captured* run = find(name + "/" + std::to_string(arg));
    if (run == nullptr || arg == 0) return 0.0;
    return run->real_ns_per_iteration / static_cast<double>(arg);
  }
  double items_per_second(const std::string& name, std::int64_t arg) const {
    const Captured* run = find(name + "/" + std::to_string(arg));
    return run == nullptr ? 0.0 : run->items_per_second;
  }
  double ns_per_iteration(const std::string& full_name) const {
    const Captured* run = find(full_name);
    return run == nullptr ? 0.0 : run->real_ns_per_iteration;
  }

 private:
  // Benchmarks registered with MinTime/MinWarmUpTime report under names
  // with "/min_time:..." style suffixes appended; accept either the exact
  // name or the name followed by such a suffix.
  const Captured* find(const std::string& prefix) const {
    const auto it = runs_.find(prefix);
    if (it != runs_.end()) return &it->second;
    for (const auto& [name, captured] : runs_) {
      if (name.size() > prefix.size() && name[prefix.size()] == '/' &&
          name.compare(0, prefix.size(), prefix) == 0) {
        return &captured;
      }
    }
    return nullptr;
  }

  std::map<std::string, Captured> runs_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernel.json";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kFlag = "--bench-json=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      json_path = argv[i] + std::strlen(kFlag);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!json_path.empty()) {
    srm::util::PerfJson json(json_path, "micro_kernel");
    const double ns_per_event =
        reporter.ns_per_item("BM_EventQueueScheduleRun", 100000);
    if (ns_per_event > 0) {
      json.set("event_queue_ns_per_event", ns_per_event);
      json.set("event_queue_events_per_second",
               reporter.items_per_second("BM_EventQueueScheduleRun", 100000));
    }
    const double churn =
        reporter.items_per_second("BM_EventQueueCancelChurn", 100000);
    if (churn > 0) json.set("event_queue_cancel_churn_events_per_second", churn);
    const double deliveries =
        reporter.items_per_second("BM_MulticastDelivery", 1000);
    if (deliveries > 0) {
      json.set("multicast_deliveries_per_second", deliveries);
      json.set("multicast_ns_per_delivery",
               reporter.ns_per_item("BM_MulticastDelivery", 1000));
    }
    const double round_ns =
        reporter.ns_per_iteration("BM_FullLossRecoveryRound/100");
    if (round_ns > 0) json.set("loss_round_g100_us", round_ns / 1e3);
    // Enabled-tracing variants: the gap to the plain numbers above is the
    // cost of actually emitting records (the plain runs already pay the
    // compiled-in-but-disabled guard).
    const double traced_event =
        reporter.ns_per_item("BM_EventQueueScheduleRunTraced", 100000);
    if (traced_event > 0) {
      json.set("event_queue_traced_ns_per_event", traced_event);
    }
    const double traced_delivery =
        reporter.ns_per_item("BM_MulticastDeliveryTraced", 1000);
    if (traced_delivery > 0) {
      json.set("multicast_traced_ns_per_delivery", traced_delivery);
    }
    // A filtered run that captured nothing must not wipe recorded metrics.
    if (!json.empty()) json.save();
  }
  benchmark::Shutdown();
  return 0;
}
