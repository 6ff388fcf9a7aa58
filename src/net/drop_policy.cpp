#include "net/drop_policy.h"

#include <stdexcept>
#include <utility>

namespace srm::net {

namespace {

// Key-space salts: one per draw family so RandomDrop decisions, GE loss
// decisions and GE chain transitions sharing a seed never collide.
constexpr std::uint64_t kSaltRandomDrop = 1;
constexpr std::uint64_t kSaltGeLoss = 2;
constexpr std::uint64_t kSaltGeTransition = 3;

// Stable coordinate for a directed link traversal: the (undirected) link id
// plus a direction bit.
std::uint64_t directed_edge_key(const HopContext& hop) {
  return (static_cast<std::uint64_t>(hop.link) << 1) |
         (hop.from > hop.to ? 1u : 0u);
}

}  // namespace

ScriptedLinkDrop::ScriptedLinkDrop(NodeId from, NodeId to, Predicate match,
                                   std::size_t max_drops)
    : from_(from), to_(to), match_(std::move(match)), max_drops_(max_drops) {
  if (!match_) {
    throw std::invalid_argument("ScriptedLinkDrop: null predicate");
  }
}

bool ScriptedLinkDrop::should_drop(const Packet& packet,
                                   const HopContext& hop) {
  // Link and predicate first: hops that cannot match never touch the budget,
  // so concurrent walks in other regions only read it.
  if (hop.from != from_ || hop.to != to_) return false;
  if (drops_.load(std::memory_order_relaxed) >= max_drops_) return false;
  if (!match_(packet)) return false;
  drops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ScriptedLinkDrop::rearm(std::size_t max_drops) {
  drops_.store(0, std::memory_order_relaxed);
  max_drops_ = max_drops;
}

RandomDrop::RandomDrop(double rate, std::uint64_t seed, Predicate match)
    : rate_(rate), seed_(seed), match_(std::move(match)) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("RandomDrop: rate outside [0,1]");
  }
}

void RandomDrop::restrict_to(NodeId from, NodeId to) {
  restricted_ = true;
  from_ = from;
  to_ = to;
}

bool RandomDrop::should_drop(const Packet& packet, const HopContext& hop) {
  if (restricted_ && (hop.from != from_ || hop.to != to_)) return false;
  if (match_ && !match_(packet)) return false;
  // Pure function of (seed, directed edge, transmission): keyed_unit is in
  // [0, 1), so rate 0 never drops and rate 1 always does.
  if (util::keyed_unit(seed_, directed_edge_key(hop), hop.packet_ordinal,
                       kSaltRandomDrop) >= rate_) {
    return false;
  }
  drops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void CompositeDrop::add(std::shared_ptr<DropPolicy> policy) {
  if (!policy) throw std::invalid_argument("CompositeDrop::add: null policy");
  policies_.push_back(std::move(policy));
}

bool CompositeDrop::should_drop(const Packet& packet, const HopContext& hop) {
  bool drop = false;
  // Every policy sees every hop so drop accounting stays complete even when
  // an earlier policy already decided to drop.
  for (const auto& p : policies_) {
    if (p->should_drop(packet, hop)) drop = true;
  }
  return drop;
}

void CompositeDrop::prepare(std::size_t link_count) {
  for (const auto& p : policies_) p->prepare(link_count);
}

GilbertElliottDrop::GilbertElliottDrop(Params params, std::uint64_t seed,
                                       Predicate match)
    : params_(params), seed_(seed), match_(std::move(match)) {
  const auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!in_unit(params_.p_good_bad) || !in_unit(params_.p_bad_good) ||
      !in_unit(params_.loss_good) || !in_unit(params_.loss_bad)) {
    throw std::invalid_argument(
        "GilbertElliottDrop: probability outside [0,1]");
  }
  if (!(params_.slot_dt > 0.0)) {
    throw std::invalid_argument("GilbertElliottDrop: slot_dt must be > 0");
  }
}

void GilbertElliottDrop::restrict_to(NodeId from, NodeId to) {
  restricted_ = true;
  from_ = from;
  to_ = to;
}

void GilbertElliottDrop::prepare(std::size_t link_count) {
  if (link_count <= chain_.size()) return;
  std::vector<std::atomic<std::uint64_t>> grown(link_count);
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    grown[i].store(chain_[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  chain_ = std::move(grown);
}

bool GilbertElliottDrop::chain_state(LinkId link, std::uint64_t slot) {
  if (link >= chain_.size()) {
    // Lazy growth: only reachable when the policy is consulted without a
    // prepare() call (standalone use), which is sequential by construction —
    // the network always prepares at install time, before parallel walks.
    prepare(static_cast<std::size_t>(link) + 1);
  }
  std::atomic<std::uint64_t>& memo = chain_[link];
  const std::uint64_t cached = memo.load(std::memory_order_relaxed);
  std::uint64_t k = 0;
  bool bad = false;  // every link starts in the good state at slot 0
  if (cached != 0) {
    const std::uint64_t cached_slot = (cached >> 1) - 1;
    if (cached_slot <= slot) {
      k = cached_slot;
      bad = (cached & 1u) != 0;
    }
  }
  for (; k < slot; ++k) {
    const double flip = bad ? params_.p_bad_good : params_.p_good_bad;
    if (util::keyed_unit(seed_, link, k, kSaltGeTransition) < flip) {
      bad = !bad;
    }
  }
  memo.store(((slot + 1) << 1) | (bad ? 1u : 0u), std::memory_order_relaxed);
  return bad;
}

bool GilbertElliottDrop::in_bad_state(LinkId link, double at) {
  return chain_state(link, static_cast<std::uint64_t>(at / params_.slot_dt));
}

bool GilbertElliottDrop::should_drop(const Packet& packet,
                                     const HopContext& hop) {
  if (restricted_ && (hop.from != from_ || hop.to != to_)) return false;
  if (match_ && !match_(packet)) return false;
  const auto slot = static_cast<std::uint64_t>(hop.now / params_.slot_dt);
  const bool bad = chain_state(hop.link, slot);
  const double loss = bad ? params_.loss_bad : params_.loss_good;
  if (util::keyed_unit(seed_, directed_edge_key(hop), hop.packet_ordinal,
                       kSaltGeLoss) >= loss) {
    return false;
  }
  drops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace srm::net
