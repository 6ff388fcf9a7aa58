#include "sim/pdes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace srm::sim {

namespace {
constexpr Time kInf = std::numeric_limits<Time>::infinity();
}  // namespace

ParallelKernel::ParallelKernel(std::size_t regions, double lookahead)
    : lookahead_(lookahead) {
  if (regions == 0) {
    throw std::invalid_argument("ParallelKernel: need at least one region");
  }
  if (regions > 1 && !(lookahead > 0.0)) {
    throw std::invalid_argument(
        "ParallelKernel: multi-region kernel requires positive lookahead");
  }
  // One region has no cross-region constraint: an unbounded window keeps
  // the main loop from spinning on W == region floor when lookahead == 0.
  if (regions == 1) lookahead_ = kInf;
  queues_.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    queues_.push_back(std::make_unique<EventQueue>());
  }
  drain_hooks_.assign(regions, {});
}

void ParallelKernel::set_region_distances(std::vector<std::vector<double>> d) {
  const std::size_t regions = queues_.size();
  if (d.size() != regions) {
    throw std::invalid_argument(
        "ParallelKernel::set_region_distances: matrix is not RxR");
  }
  for (std::size_t s = 0; s < regions; ++s) {
    if (d[s].size() != regions) {
      throw std::invalid_argument(
          "ParallelKernel::set_region_distances: matrix is not RxR");
    }
    for (std::size_t r = 0; r < regions; ++r) {
      // An off-diagonal entry below the uniform lookahead would claim mail
      // can arrive faster than the partition's own cut bound — a wiring bug.
      if (s != r && !(d[s][r] >= lookahead_) && regions > 1) {
        throw std::invalid_argument(
            "ParallelKernel::set_region_distances: entry below lookahead");
      }
    }
  }
  dist_ = std::move(d);
}

Time ParallelKernel::now() const {
  Time t = global_.now();
  for (const auto& q : queues_) t = std::max(t, q->now());
  return t;
}

void ParallelKernel::set_drain_hook(std::size_t r,
                                    std::function<std::uint64_t()> hook) {
  drain_hooks_.at(r) = std::move(hook);
}

std::uint64_t ParallelKernel::drain_all() {
  std::uint64_t adopted = 0;
  for (const std::function<std::uint64_t()>& hook : drain_hooks_) {
    if (hook) adopted += hook();
  }
  return adopted;
}

std::uint64_t ParallelKernel::executed_events() const {
  std::uint64_t n = global_.executed_events();
  for (const std::unique_ptr<EventQueue>& q : queues_) {
    n += q->executed_events();
  }
  return n;
}

ParallelKernel::RunStats ParallelKernel::run(unsigned threads, Time t_end) {
  RunStats stats;
  const std::size_t region_count = queues_.size();
  const unsigned workers = std::min<unsigned>(
      std::max(threads, 1u), static_cast<unsigned>(region_count));

  // Worker pool for this run.  Coordination is a round counter published
  // under `mu`: workers sleep until the round advances, claim regions off
  // the shared atomic cursor, execute each claimed region's window on the
  // calling worker's thread, and the last one out signals the coordinator.
  // All queue state crosses threads only through `mu`, which gives the
  // happens-before edges ThreadSanitizer (and the hardware) need.  The
  // per-region window bounds in `win` are written by the coordinator alone,
  // strictly before the round advances (same mutex), so workers read them
  // race-free without holding the lock.
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t round = 0;
  std::vector<Time> win(region_count, 0.0);
  std::atomic<std::size_t> next_region{0};
  std::atomic<std::uint64_t> window_events{0};
  unsigned active = 0;
  bool shutdown = false;
  std::vector<std::thread> pool;

  if (workers > 1) {
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      pool.emplace_back([&] {
        std::uint64_t seen = 0;
        for (;;) {
          {
            std::unique_lock<std::mutex> lk(mu);
            cv_work.wait(lk, [&] { return shutdown || round != seen; });
            if (shutdown) return;
            seen = round;
          }
          std::uint64_t n = 0;
          for (;;) {
            const std::size_t r =
                next_region.fetch_add(1, std::memory_order_relaxed);
            if (r >= region_count) break;
            n += queues_[r]->run_before(win[r]);
          }
          window_events.fetch_add(n, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lk(mu);
            if (--active == 0) cv_done.notify_one();
          }
        }
      });
    }
  }

  auto run_windows = [&]() -> std::uint64_t {
    if (workers <= 1) {
      std::uint64_t n = 0;
      for (std::size_t r = 0; r < region_count; ++r) {
        n += queues_[r]->run_before(win[r]);
      }
      return n;
    }
    window_events.store(0, std::memory_order_relaxed);
    next_region.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu);
      active = workers;
      ++round;
    }
    cv_work.notify_all();
    {
      std::unique_lock<std::mutex> lk(mu);
      cv_done.wait(lk, [&] { return active == 0; });
    }
    return window_events.load(std::memory_order_relaxed);
  };

  // Any coordinator-side throw (a drain hook surfacing a scheduling bug,
  // say) must still join the pool: a joinable std::thread destructor calls
  // std::terminate and would eat the real diagnostic.
  auto stop_pool = [&] {
    if (pool.empty()) return;
    {
      std::lock_guard<std::mutex> lk(mu);
      shutdown = true;
    }
    cv_work.notify_all();
    for (std::thread& t : pool) t.join();
    pool.clear();
  };

  // Minimum round-trip bound per region: the earliest time an echo of
  // region r's own execution (mail out, remote handling, mail back —
  // possibly relayed, which the metric closure makes no shorter) can
  // return.  Bounds how far r may run past its own floor in one round;
  // the mail it emits only lands at the next barrier, where the floors
  // pick it up.
  std::vector<double> rt(region_count, kInf);
  for (std::size_t r = 0; r < region_count; ++r) {
    for (std::size_t s = 0; s < region_count; ++s) {
      if (s == r) continue;
      rt[r] = std::min(rt[r], min_delay(r, s) + min_delay(s, r));
    }
  }

  std::vector<Time> floors(region_count, kInf);
  try {
  for (;;) {
    stats.messages += drain_all();
    Time m_r = kInf;
    for (std::size_t r = 0; r < region_count; ++r) {
      floors[r] = queues_[r]->next_event_time();
      m_r = std::min(m_r, floors[r]);
    }
    const Time m_g = global_.next_event_time();
    const Time floor = std::min(m_r, m_g);
    if (floor == kInf || floor > t_end) break;
    if (m_g <= m_r) {
      // Serialized global phase: ties go to the global queue, so control
      // events (fault cuts, harness round drivers) always observe region
      // state strictly before timestamp m_g, and every region clock reads
      // m_g while they execute.
      for (const std::unique_ptr<EventQueue>& q : queues_) {
        q->advance_to(m_g);
      }
      stats.global_events += global_.run_until(m_g);
      ++stats.global_phases;
      continue;  // global events may have posted mail: drain before windows
    }
    // Asynchronous windows: each region is bounded only by the floors of
    // regions that can actually reach it (plus the global queue), not by
    // the global minimum — a pure function of the barrier snapshot, so
    // every worker count executes the same round sequence.
    for (std::size_t r = 0; r < region_count; ++r) {
      Time w = m_g;
      for (std::size_t s = 0; s < region_count; ++s) {
        if (s == r || floors[s] == kInf) continue;
        w = std::min(w, floors[s] + min_delay(s, r));
      }
      // Self-echo bound: r's own events from floors[r] onward can wake a
      // peer whose reply lands back here no earlier than floors[r] + rt[r].
      // Without it, a region whose peers are all idle would run unbounded
      // and then receive that reply in its past.
      if (floors[r] != kInf) w = std::min(w, floors[r] + rt[r]);
      if (w > t_end) {
        // Include events at exactly t_end, nothing later (run_until parity).
        w = std::nextafter(t_end, kInf);
      }
      win[r] = w;
    }
    stats.region_events += run_windows();
    ++stats.windows;
  }
  } catch (...) {
    stop_pool();
    throw;
  }

  stop_pool();

  // Line every clock up so now() reports what the sequential kernel would:
  // the last executed event time, or t_end for a bounded run.
  Time end = now();
  if (std::isfinite(t_end)) end = std::max(end, t_end);
  if (std::isfinite(end)) {
    for (const std::unique_ptr<EventQueue>& q : queues_) q->advance_to(end);
    global_.advance_to(end);
  }

  total_.region_events += stats.region_events;
  total_.global_events += stats.global_events;
  total_.windows += stats.windows;
  total_.global_phases += stats.global_phases;
  total_.messages += stats.messages;
  return stats;
}

}  // namespace srm::sim
