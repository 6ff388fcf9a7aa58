// One scenario runner for the paper's scenario shape: a source, a congested
// link on its multicast tree and loss-recovery rounds (Sec. V), with
// network dynamics (Sec. III-D), coded repair (Sec. VII-B) and local areas
// (Sec. IX-A) layered on top.  run() acquires a session's parts in one
// fixed order -- session, trace capture, hierarchy warm-up, coded repair,
// fault injector, rounds -- and releases them in reverse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/checker.h"
#include "fault/conformance.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/loss_round.h"
#include "net/network.h"
#include "net/topology.h"
#include "srm/config.h"
#include "trace/trace.h"

namespace srm::harness {

struct Scenario {
  net::Topology topo;
  std::vector<net::NodeId> members;
  SrmConfig srm;
  std::uint64_t seed = 1;
  std::uint32_t kernel_regions = 0;  // 0 = derive from the node count
  RoundSpec round;  // the loss rounds' source, congested link and page
  int rounds = 10;
  bool coded_repair = false;  // one fec::FecSession per member (srm.fec)
  fault::FaultPlan faults;  // empty: no injector
  double fault_deadline = 100.0;  // the recovery checker's deadline
  // Receives trace_mask's categories beside the run's capture; not owned.
  trace::Sink* trace_sink = nullptr;
  std::uint32_t trace_mask = trace::kMaskNone;
  // Record each round's transmissions as text (sequential kernel only).
  bool log_sends = false;
};

// The hierarchy's steady state after the warm-up of two report intervals.
struct HierarchyState {
  double warm_up = 0.0;  // virtual seconds
  std::uint32_t areas = 0;
  std::size_t representatives = 0;
  std::uint64_t local_reports = 0;
  std::uint64_t global_reports = 0;
  // Timer-wheel buckets are kept per event queue, so their count depends
  // on the kernel; the pending reports they hold do not.
  std::size_t wheel_buckets = 0;
  std::size_t wheel_items = 0;
  std::size_t group_size_estimate = 0;  // by the first member
};

struct RoundOutcome {
  RoundResult result;  // meaningful only when `disruption` is empty
  std::string disruption;  // why the fault plan made the round unrunnable
  std::string sends;  // Scenario::log_sends: one line per transmission
};

struct ScenarioResult {
  std::uint32_t kernel_regions = 1;  // 1 on the sequential kernel
  double lookahead = 0.0;            // 0 on the sequential kernel
  std::optional<HierarchyState> hierarchy;  // with srm.hierarchy.enabled
  std::vector<RoundOutcome> rounds;
  net::NetworkStats totals;
  std::vector<trace::Event> capture;  // the srm and fault categories
  fault::Conformance conformance;     // the Sec. III-B fold over `capture`
  // With a fault plan: the recovery verdict and what the injector did.
  std::optional<fault::CheckerReport> recovery;
  fault::FaultInjector::Stats fault_totals;
};

// Runs `scenario` on the sequential kernel (kernel_threads == 0) or on the
// parallel kernel with that many workers.  Without a fault plan a round
// that cannot run throws; with one, its disruption is recorded and the
// rounds go on.
ScenarioResult run(const Scenario& scenario, unsigned kernel_threads);

// Every difference between two results of one scenario, one line each;
// empty when they agree.  Compares everything but the captures, whose order
// of events at equal times is the kernel's own, and the wheel buckets.
std::vector<std::string> diff(const ScenarioResult& a,
                              const ScenarioResult& b);

// The parallel kernel's equivalence verdict on one scenario run on the
// sequential kernel (`seq`), on the parallel kernel with one worker (`p1`)
// and with k workers (`pk`): the two parallel captures must be
// bit-identical, and each parallel result must agree with the sequential
// one by diff().  One line per difference; empty when the kernels agree.
std::vector<std::string> compare_kernels(const ScenarioResult& seq,
                                         const ScenarioResult& p1,
                                         const ScenarioResult& pk, unsigned k);

}  // namespace srm::harness
