// Loss injection.
//
// The paper's loss-recovery experiments drop one specific data packet on one
// "congested link" per round (Sec. V); extended scenarios add random loss
// and loss of requests/repairs themselves (Sec. VII-A).  A DropPolicy is
// consulted once per directed link traversal of each multicast transmission,
// so a drop prunes the whole subtree below the congested link, exactly as a
// real multicast forwarding drop would.
//
// Parallel-kernel (PDES) note: under --kernel-threads every region's walks
// consult the same policy object concurrently, so every policy here is a
// pure function of stable hop coordinates plus at most atomic counters.
// NoDrop and ScriptedLinkDrop use an atomic budget; RandomDrop and
// GilbertElliottDrop key every stochastic draw by (seed, directed edge,
// packet ordinal) through util::keyed_u64 — no shared RNG stream exists, so
// the decision a given hop consultation produces is identical no matter
// which worker, region, or interleaving executes the walk.  The Gilbert-
// Elliott channel state is a time-slotted per-link Markov chain evaluated
// as a pure function of (seed, link, slot); a memo per (walking region,
// link) caches the last computed (slot, state) pair purely as an
// optimization.  Only its region's worker writes a row, and every
// recomputation yields the same value.  All policies are PDES-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"
#include "util/rng.h"

namespace srm::net {

// One directed link traversal of one transmission.  `packet_ordinal` is the
// per-source transmission counter composed with the sending node id (stable
// across kernels: a node's sends execute in the same order under every
// thread count), and `now` is the send time of the walk consulting the
// policy — both are pure coordinates for keyed stochastic draws.  `region`
// is the kernel region of the network walking the tree (0 when
// sequential); a policy may keep per-region state by it, never let it
// change a decision.
struct HopContext {
  LinkId link;
  NodeId from;
  NodeId to;
  std::uint64_t packet_ordinal = 0;
  double now = 0.0;
  std::uint32_t region = 0;
};

// A policy may be restricted to one directed link.  The restriction lives
// here, not in each policy: the network and CompositeDrop test applies()
// before the virtual should_drop call, so a hop on another link costs a
// restricted policy an inline test, not a call, and each should_drop tests
// it again so that direct calls stay correct.
class DropPolicy {
 public:
  virtual ~DropPolicy() = default;
  // Returns true if this packet should be dropped on this directed hop.
  virtual bool should_drop(const Packet& packet, const HopContext& hop) = 0;
  // Called by the network when the policy is installed, before any
  // concurrent consultation, so per-link and per-region state can be sized
  // up front (resizing during a parallel walk would race).  Default: no-op.
  virtual void prepare(std::size_t link_count, std::size_t region_count) {
    (void)link_count;
    (void)region_count;
  }

  // Restricts loss to the directed link from -> to; every other hop passes.
  void restrict_to(NodeId from, NodeId to) {
    restricted_ = true;
    from_ = from;
    to_ = to;
  }
  // False when the policy is restricted to another directed link.
  bool applies(const HopContext& hop) const {
    return !restricted_ || (hop.from == from_ && hop.to == to_);
  }

 private:
  bool restricted_ = false;
  NodeId from_ = kInvalidNode;
  NodeId to_ = kInvalidNode;
};

// Never drops anything.
class NoDrop final : public DropPolicy {
 public:
  bool should_drop(const Packet&, const HopContext&) override { return false; }
};

// Drops packets matching a predicate on a specific directed link, up to a
// maximum count (default 1).  This is the paper's "congested link" that
// drops the first packet from the source.
class ScriptedLinkDrop final : public DropPolicy {
 public:
  using Predicate = std::function<bool(const Packet&)>;

  ScriptedLinkDrop(NodeId from, NodeId to, Predicate match,
                   std::size_t max_drops = 1);

  bool should_drop(const Packet& packet, const HopContext& hop) override;

  std::size_t drops_so_far() const {
    return drops_.load(std::memory_order_relaxed);
  }
  void rearm(std::size_t max_drops = 1);

 private:
  Predicate match_;
  std::size_t max_drops_;
  // Atomic so concurrent region walks (which only read it until the link and
  // predicate both match) are race-free under the parallel kernel.
  std::atomic<std::size_t> drops_{0};
};

// Drops packets matching an (optional) predicate with fixed probability on
// every hop, or only on one directed link if restricted.  Each decision is
// keyed_unit(seed, directed edge, packet ordinal) < rate — a pure function,
// so the same transmission crossing the same hop drops identically in every
// kernel and the policy shares safely across concurrent region walks.
class RandomDrop final : public DropPolicy {
 public:
  using Predicate = std::function<bool(const Packet&)>;

  RandomDrop(double rate, std::uint64_t seed, Predicate match = nullptr);

  bool should_drop(const Packet& packet, const HopContext& hop) override;

  std::size_t drops_so_far() const {
    return drops_.load(std::memory_order_relaxed);
  }

 private:
  double rate_;
  std::uint64_t seed_;
  Predicate match_;
  std::atomic<std::size_t> drops_{0};
};

// Applies several policies in order; drops if any of them drops.  Every
// policy that applies to the hop is consulted, even after one has dropped,
// so drop accounting stays complete; a policy restricted to another link
// is skipped without a call.  The burst_stream and burst_stream_pdes worlds
// of perfbench/main.cpp and bench/pdes_kernel each install one to hold a
// scripted congested-link drop per source.
class CompositeDrop final : public DropPolicy {
 public:
  void add(std::shared_ptr<DropPolicy> policy);
  bool should_drop(const Packet& packet, const HopContext& hop) override;
  void prepare(std::size_t link_count, std::size_t region_count) override;

 private:
  std::vector<std::shared_ptr<DropPolicy>> policies_;
};

// Bursty loss: the Gilbert-Elliott two-state Markov model.  Each link is an
// independent channel alternating between a "good" state (loss probability
// loss_good, usually 0) and a "bad" state (loss probability loss_bad,
// usually 1).  The chain is time-slotted: the state during slot k (of width
// slot_dt seconds) is a pure function of (seed, link, k), obtained by
// advancing the per-slot transition draws from slot 0 (all links start
// good).  The per-hop loss decision is keyed by (seed, directed edge,
// packet ordinal) under the current slot's state; when that state's loss
// probability is exactly 0 or 1 (the defaults) the outcome is known, since
// keyed_unit lies in [0, 1), and no draw is made.  A draw advances no
// state, so skipping it changes no decision.  Pure coordinates mean no
// draw-order dependence: the policy composes with the parallel kernel and
// replays bit-identically at any thread count.
//
// Each (region, link) pair memoizes the last slot it evaluated, so a walk
// advances the chain from there.  A region's walks run in non-decreasing
// time, so its row never has to replay from slot 0; one row shared by the
// regions would, whenever a region behind another's window consulted it.
class GilbertElliottDrop final : public DropPolicy {
 public:
  using Predicate = std::function<bool(const Packet&)>;

  struct Params {
    double p_good_bad = 0.05;  // P(good -> bad) per slot
    double p_bad_good = 0.25;  // P(bad -> good) per slot
    double loss_good = 0.0;    // loss probability while in the good state
    double loss_bad = 1.0;     // loss probability while in the bad state
    double slot_dt = 0.5;      // chain slot width in simulated seconds

    friend bool operator==(const Params&, const Params&) = default;
  };

  GilbertElliottDrop(Params params, std::uint64_t seed,
                     Predicate match = nullptr);

  bool should_drop(const Packet& packet, const HopContext& hop) override;
  // Sizes the chain memos, one row of links per region; links or regions
  // beyond these counts grow lazily, which is only safe before concurrent
  // consultation begins.
  void prepare(std::size_t link_count, std::size_t region_count) override;

  // Channel state of `link` during the slot containing time `at`, as
  // `region`'s memo row evaluates it (the state is the same in every row).
  bool in_bad_state(LinkId link, double at, std::uint32_t region = 0);
  std::size_t drops_so_far() const {
    return drops_.load(std::memory_order_relaxed);
  }

 private:
  bool chain_state(std::uint32_t region, LinkId link, std::uint64_t slot);

  Params params_;
  std::uint64_t seed_;
  Predicate match_;
  // Memo of the last evaluated (slot, state) per (region, link), at
  // chain_[region * links_ + link], packed as ((slot + 1) << 1) | bad with
  // 0 meaning "unset".  Relaxed atomics keep even a shared row race-free;
  // the chain is a pure function of (seed, link, slot), so any row may be
  // consulted for any slot and still answers correctly.
  std::vector<std::atomic<std::uint64_t>> chain_;
  std::size_t links_ = 0;
  std::size_t regions_ = 0;
  std::atomic<std::size_t> drops_{0};
};

}  // namespace srm::net
