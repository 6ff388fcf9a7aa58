// What a member of a hierarchical session holds (ARCHITECTURE.md §12).
// Two-level reporting makes what a member hears grow like sqrt(G), and the
// member's heap should track what it has heard: no idle echo tables between
// reports, no doubling slack in the distance estimator, no RNG engine that
// is never drawn from.  The session is built as bench/session_scaling's
// hierarchy panel builds it: G members on a tree of ~sqrt(G) LANs, one area
// per LAN, TTL-2 local reports every 10 s, estimated distances.
#include <malloc.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "harness/session.h"
#include "srm/session_hierarchy.h"
#include "topo/builders.h"

namespace srm::harness {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// The sanitizers' allocators keep their own books, which mallinfo2 does
// not see.
constexpr bool kHeapVisible = false;
#else
constexpr bool kHeapVisible = true;
#endif

// Heap bytes in use: every malloc arena plus the mmapped chunks.
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

TEST(MemberMemoryTest, HierarchyMemberHoldsWhatItHeard) {
  constexpr std::size_t kMembers = 2000;
  constexpr double kInterval = 10.0;
  // Heap the session adds per member, topology and network included.
  // Members that keep an idle echo table and a recycled message between
  // reports, double their estimator records and carry two inline RNG
  // engines hold about 30 KB here; what they have heard takes about 16 KB.
  constexpr double kMaxBytesPerMember = 22.0 * 1024;

  const double heap0 = heap_bytes();
  const auto areas = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(kMembers))));
  topo::TreeOfLans tl =
      topo::make_tree_of_lans(areas, 4, (kMembers + areas - 1) / areas);
  const std::vector<net::NodeId> members(
      tl.workstations.begin(), tl.workstations.begin() + kMembers);
  SrmConfig cfg;
  cfg.distance_mode = DistanceMode::kEstimated;
  cfg.hierarchy.enabled = true;
  cfg.hierarchy.local_ttl = 2;
  cfg.hierarchy.report_interval = kInterval;
  cfg.hierarchy.areas = static_cast<std::uint32_t>(areas);
  SimSession session(std::move(tl.topo), members, {cfg, 1001, 1});
  session.run_until(kInterval);        // warm-up interval
  session.run_until(3.0 * kInterval);  // two measured intervals
  const double per_member =
      (heap_bytes() - heap0) / static_cast<double>(kMembers);

  const SessionHierarchy& hier = *session.hierarchy();
  EXPECT_GT(hier.global_reports_sent(), 0u);
  std::size_t heard_total = 0;
  for (std::size_t i = 0; i < session.member_count(); ++i) {
    const DistanceEstimator& est = session.agent(i).estimator();
    const std::size_t heard = est.peers_heard();
    heard_total += heard;
    const auto bound = static_cast<std::size_t>(
                           std::ceil(1.25 * static_cast<double>(heard))) +
                       4;
    EXPECT_LE(est.capacity(), bound) << "member " << i << " heard " << heard;
  }
  // Every member heard its area and the representatives.
  EXPECT_GT(heard_total, kMembers * areas);

  if (kHeapVisible) {
    EXPECT_LT(per_member, kMaxBytesPerMember)
        << "heap per member: " << per_member << " B";
  }
}

}  // namespace
}  // namespace srm::harness
