// Parallel replication runner.
//
// A figure sweep is many independent replications: each owns its own
// EventQueue / MulticastNetwork / agents, built from a seed drawn up front,
// so replications share no mutable state and can run on any thread.
// ReplicationRunner fans a batch of such jobs across a thread pool and
// collects results *by replication index*, which makes any downstream merge
// deterministic and independent of thread count or completion order:
// `--threads 1` is bit-for-bit identical to `--threads N`.
//
// Usage (see bench/common.h for the TrialSpec adapter):
//   ReplicationRunner runner(flags.get_int("threads", 0));
//   auto results = runner.map<RoundResult>(specs.size(), [&](std::size_t i) {
//     return run_trial(std::move(specs[i]));
//   });
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace srm::harness {

// Threads to use when the caller passes 0 ("pick for me"): the hardware
// concurrency, but never 0.
unsigned default_thread_count();

// Kernel workers for one parallel-kernel session: the request, capped at
// the hardware concurrency so workers never oversubscribe the machine.  0
// (the sequential kernel) passes through.  `hardware == 0` reads the real
// concurrency; tests pass an explicit value.
unsigned cap_kernel_threads(unsigned requested, unsigned hardware = 0);

class ReplicationRunner {
 public:
  // threads == 0 selects default_thread_count(); threads == 1 runs every
  // job inline on the calling thread (no pool, no synchronization).
  explicit ReplicationRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  // Runs fn(0) .. fn(count - 1), each exactly once, and returns the results
  // indexed by job.  fn must be safe to call concurrently from different
  // threads for different indices; Result must be default-constructible and
  // movable.  The first exception thrown by any job is rethrown on the
  // calling thread after all workers finish.
  template <typename Result, typename Fn>
  std::vector<Result> map(std::size_t count, Fn&& fn) const {
    std::vector<Result> results(count);
    if (threads_ <= 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
      return results;
    }
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          results[i] = fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    };
    const std::size_t n_workers =
        std::min<std::size_t>(threads_, count);
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t t = 0; t < n_workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
    return results;
  }

 private:
  unsigned threads_;
};

}  // namespace srm::harness
