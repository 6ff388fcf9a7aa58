#include "net/drop_policy.h"

#include <algorithm>
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
    : match_(std::move(match)), max_drops_(max_drops) {
  if (!match_) {
    throw std::invalid_argument("ScriptedLinkDrop: null predicate");
  }
  restrict_to(from, to);
}

bool ScriptedLinkDrop::should_drop(const Packet& packet,
                                   const HopContext& hop) {
  // Link and predicate first: hops that cannot match never touch the budget,
  // so concurrent walks in other regions only read it.
  if (!applies(hop)) return false;
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

bool RandomDrop::should_drop(const Packet& packet, const HopContext& hop) {
  if (!applies(hop)) return false;
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
  // Every policy that applies to the hop sees it, so drop accounting stays
  // complete even when an earlier policy already decided to drop.
  for (const auto& p : policies_) {
    if (p->applies(hop) && p->should_drop(packet, hop)) drop = true;
  }
  return drop;
}

void CompositeDrop::prepare(std::size_t link_count,
                            std::size_t region_count) {
  for (const auto& p : policies_) p->prepare(link_count, region_count);
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

void GilbertElliottDrop::prepare(std::size_t link_count,
                                 std::size_t region_count) {
  link_count = std::max(link_count, links_);
  region_count = std::max(region_count, regions_);
  if (link_count == links_ && region_count == regions_) return;
  std::vector<std::atomic<std::uint64_t>> grown(link_count * region_count);
  for (std::size_t r = 0; r < regions_; ++r) {
    for (std::size_t l = 0; l < links_; ++l) {
      grown[r * link_count + l].store(
          chain_[r * links_ + l].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
  chain_ = std::move(grown);
  links_ = link_count;
  regions_ = region_count;
}

bool GilbertElliottDrop::chain_state(std::uint32_t region, LinkId link,
                                     std::uint64_t slot) {
  if (link >= links_ || region >= regions_) {
    // Lazy growth: only reachable when the policy is consulted without a
    // prepare() call (standalone use), which is sequential by construction —
    // the network always prepares at install time, before parallel walks.
    prepare(static_cast<std::size_t>(link) + 1,
            static_cast<std::size_t>(region) + 1);
  }
  std::atomic<std::uint64_t>& memo = chain_[region * links_ + link];
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

bool GilbertElliottDrop::in_bad_state(LinkId link, double at,
                                      std::uint32_t region) {
  return chain_state(region, link,
                     static_cast<std::uint64_t>(at / params_.slot_dt));
}

bool GilbertElliottDrop::should_drop(const Packet& packet,
                                     const HopContext& hop) {
  if (!applies(hop)) return false;
  if (match_ && !match_(packet)) return false;
  const auto slot = static_cast<std::uint64_t>(hop.now / params_.slot_dt);
  const bool bad = chain_state(hop.region, hop.link, slot);
  const double loss = bad ? params_.loss_bad : params_.loss_good;
  // keyed_unit lies in [0, 1): loss 0 never drops and loss 1 always does,
  // so only a loss strictly between them needs the draw.
  if (loss == 0.0) return false;
  if (loss != 1.0 && util::keyed_unit(seed_, directed_edge_key(hop),
                                      hop.packet_ordinal,
                                      kSaltGeLoss) >= loss) {
    return false;
  }
  drops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace srm::net
