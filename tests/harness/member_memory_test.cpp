// What a member holds.  In a hierarchical session (ARCHITECTURE.md §12),
// two-level reporting makes what a member hears grow like sqrt(G), and the
// member's heap should track what it has heard: no idle echo tables between
// reports, no doubling slack in the distance estimator, no RNG engine that
// is never drawn from.  That session is built as bench/session_scaling's
// hierarchy panel builds it: G members on a tree of ~sqrt(G) LANs, one area
// per LAN, TTL-2 local reports every 10 s, estimated distances.  For the
// data a member holds, each ADU costs one slot of its stream's ADU table.
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

TEST(MemberMemoryTest, HeldAduCostsOneTableSlot) {
  constexpr std::size_t kMembers = 100;
  constexpr SeqNo kAdus = 1000;
  // Heap per member per held ADU.  A hash-map node in a store plus another
  // in a per-stream received set cost 115 B here; one 40-byte slot in a
  // seq-indexed vector (capacity 1024 for 1000 ADUs) costs 42 B.
  constexpr double kMaxBytesPerAdu = 64.0;

  std::vector<net::NodeId> members(kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) {
    members[i] = static_cast<net::NodeId>(i);
  }
  SimSession session(topo::make_bounded_degree_tree(kMembers, 3), members,
                     {SrmConfig{}, 1001, 1});
  const double heap0 = heap_bytes();
  // One ADU a second, so that little is in flight at any time.
  const PageId page{0, 0};
  for (SeqNo q = 0; q < kAdus; ++q) {
    session.agent_at(0).send_data(page, {});
    session.run_until(session.queue().now() + 1.0);
  }
  session.run();
  const double per_adu = (heap_bytes() - heap0) /
                         static_cast<double>(kMembers * kAdus);

  for (std::size_t i = 0; i < kMembers; ++i) {
    ASSERT_TRUE(session.agent(i).has_data(DataName{0, page, kAdus - 1}))
        << "member " << i;
  }
  if (kHeapVisible) {
    EXPECT_LT(per_adu, kMaxBytesPerAdu)
        << "heap per member per held ADU: " << per_adu << " B";
  }
}

}  // namespace
}  // namespace srm::harness
