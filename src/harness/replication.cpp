#include "harness/replication.h"

#include <algorithm>

namespace srm::harness {

unsigned default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ReplicationRunner::ReplicationRunner(unsigned threads)
    : threads_(threads == 0 ? default_thread_count() : threads) {}

unsigned cap_kernel_threads(unsigned requested, unsigned hardware) {
  if (hardware == 0) hardware = default_thread_count();
  return std::min(requested, hardware);
}

}  // namespace srm::harness
