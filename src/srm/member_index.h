// Session-scoped dense member indexing.
//
// Source-IDs are sparse 32-bit values, so every per-peer table keyed by
// SourceId used to be a hash map — one hash + probe per lookup.  A
// MemberIndex interns each Source-ID into a small dense integer the first
// time it is seen; session-wide per-member state (the agent's
// oracle-distance cache, SessionHierarchy's member slots) then lives in
// plain vectors indexed by it.  The index is shared by the whole session and
// its direct map is sized by the largest Source-ID, so it is never copied
// per agent: state a member keeps only for the peers it hears
// (DistanceEstimator) uses its own sorted records instead.  Indices are
// stable for the lifetime of the session and never recycled: a member that
// leaves and re-joins (same persistent Source-ID, Sec. II-C) keeps its
// slot, which is exactly the behavior the protocol wants for state that
// must survive re-joins.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "srm/names.h"

namespace srm {

class MemberIndex {
 public:
  static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

  // Index for `id`, assigning the next dense slot on first use.
  std::uint32_t intern(SourceId id) {
    if (id < kDirectCap) {
      if (id >= direct_.size()) direct_.resize(id + 1, kNoIndex);
      std::uint32_t& slot = direct_[id];
      if (slot == kNoIndex) {
        slot = static_cast<std::uint32_t>(sources_.size());
        sources_.push_back(id);
      }
      return slot;
    }
    const auto [it, inserted] =
        index_.try_emplace(id, static_cast<std::uint32_t>(sources_.size()));
    if (inserted) sources_.push_back(id);
    return it->second;
  }

  // Index for `id` if already interned, else kNoIndex.  Read-only: never
  // grows the table.
  std::uint32_t find(SourceId id) const {
    if (id < kDirectCap) {
      return id < direct_.size() ? direct_[id] : kNoIndex;
    }
    const auto it = index_.find(id);
    return it == index_.end() ? kNoIndex : it->second;
  }

  SourceId source_at(std::uint32_t index) const { return sources_[index]; }

  // Number of interned members; dense indices are [0, size).
  std::size_t size() const { return sources_.size(); }

 private:
  // Source-IDs below kDirectCap (the common case: harnesses and the paper's
  // scenarios number members from zero) resolve through a flat array — one
  // load on the per-delivery hot path instead of a hash probe.  Larger IDs
  // fall back to the hash map; both views share the same dense index space.
  static constexpr SourceId kDirectCap = 1u << 16;

  std::vector<std::uint32_t> direct_;
  std::unordered_map<SourceId, std::uint32_t> index_;
  std::vector<SourceId> sources_;
};

}  // namespace srm
