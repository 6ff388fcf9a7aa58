// Scripted sessions on either Transport backend (ARCHITECTURE.md §13):
// deterministic, seeded scripts that drive an SRM session, judged by the
// fault layer's two folds, the RecoveryInvariantChecker and the six
// Sec. III-B conformance rules.
//
// A workload is a WorkloadSpec: a protocol config plus a time-sorted list
// of scripted Actions (sends, joins, leaves/crashes, receive-side drops,
// page-state probes) generated up front from (members, seed) — the same
// FaultPlan philosophy: all randomness is spent at generation time, so a
// run is a pure function of the spec and the backend clock.  Four
// heavy-traffic generators ship, far outside the paper's figure scenarios:
//
//   flash-crowd    a small core session accumulates page history, then a
//                  crowd of late-joiners arrives within ~a second and hits
//                  page-state recovery simultaneously
//   conference     NETRAWALM-style multiparty conference: speakers take
//                  randomized talk-spurts on their own pages while scripted
//                  receiver-side drops force recovery under way traffic
//   diurnal        membership swells (join wave), cruises, then drains
//                  (graceful leaves + a few crashes) under a steady stream
//   repair-storm   adversarial: the same DATA packet is dropped at a large
//                  fraction of members at once, repeatedly — the request/
//                  repair suppression machinery must keep the storm under
//                  the checker's sliding-window budget
//
// and conformance_specs() holds four small scripted-loss scenarios whose
// per-loss recovery stories must match across the backends.
//
// One runner executes a spec over a transport::Transport.  Member i is node
// i+1 and Source-ID i+1 on both backends, which is leaf i of the
// simulator's star; it is built when it joins, from the next fork() of
// util::Rng(spec.seed), so a spec's members draw the same timers on either
// backend.  A graceful leave sends one session message first.
// run_workload_sim hands the runner a net::MulticastNetwork over
// topo::make_star(peak_members, kStarLinkDelay) (virtual time,
// deterministic); run_workload_udp hands it one UdpTransport bus on
// loopback (wall time).  The runner folds the srm trace into both checks
// and a trace::RecoveryTimeline for the result's stories, counters, latency
// percentiles and determinism fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/checker.h"
#include "fault/conformance.h"
#include "srm/config.h"
#include "srm/names.h"
#include "trace/timeline.h"

namespace srm::workload {

// One-way delay of every link of the simulator backend's star.
inline constexpr double kStarLinkDelay = 0.01;

struct Action {
  enum class Kind : std::uint8_t {
    kSend,      // member multicasts one ADU on `page`
    kJoin,      // member joins the session
    kLeave,     // graceful departure
    kCrash,     // silent departure
    kDropOnce,  // arm a receive-side drop rule at `member`
    kPageProbe, // member requests page state (late-join recovery entry)
  };

  double at = 0.0;
  Kind kind = Kind::kSend;
  std::uint32_t member = 0;  // acting member ordinal (0..peak_members-1)

  // kSend / kPageProbe
  PageId page{0, 1};
  std::size_t payload_bytes = 64;

  // kDropOnce: drop the next `drop_count` messages of `drop_kind`
  // (trace_kind: 1=DATA, 2=REQUEST, 3=REPAIR) naming seq `drop_seq` (from
  // source `drop_source`, kInvalidSource = any) that arrive at `member`.
  std::uint32_t drop_kind = 1;
  SeqNo drop_seq = 0;
  SourceId drop_source = kInvalidSource;
  std::size_t drop_count = 1;
};

struct WorkloadSpec {
  std::string name;
  std::size_t initial_members = 2;  // ordinals 0..initial-1 start joined
  std::size_t peak_members = 2;     // world capacity (ordinal space)
  std::uint64_t seed = 1;
  SrmConfig config;
  std::vector<Action> actions;      // sorted by `at`
  double duration = 12.0;           // run horizon, seconds
  fault::CheckerOptions checker;
};

// Generators.  `members` scales the whole scenario (peak membership);
// every timestamp, ordinal and drop rule is derived from `seed` alone.
WorkloadSpec make_flash_crowd(std::size_t members, std::uint64_t seed);
WorkloadSpec make_conference(std::size_t members, std::uint64_t seed);
WorkloadSpec make_diurnal(std::size_t members, std::uint64_t seed);
WorkloadSpec make_repair_storm(std::size_t members, std::uint64_t seed);

// Registered generator names ("flash-crowd", "conference", "diurnal",
// "repair-storm") and the dispatching factory (throws std::invalid_argument
// on an unknown name).
std::vector<std::string> workload_names();
WorkloadSpec make_workload(const std::string& name, std::size_t members,
                           std::uint64_t seed);

// The scripted-loss scenarios the cross-backend check compares: a clean
// single loss ("clean-loss"), a lost first request ("lost-request"), a lost
// first repair ("lost-repair") and a repair-suppression race between two
// holders ("repair-suppression").  Not among workload_names().
std::vector<WorkloadSpec> conformance_specs();

struct WorkloadResult {
  fault::CheckerReport checker;
  // The six Sec. III-B rules, hold-down judged at config.default_distance,
  // the distance every member uses on either backend.
  fault::Conformance conformance;
  bool passed = false;              // the checker passed and the fold is clean

  std::size_t actions_executed = 0;
  std::size_t data_sent = 0;
  std::size_t joins = 0;
  std::size_t departures = 0;
  std::size_t scripted_drops = 0;   // receive-filter hits

  // Timeline totals.
  std::size_t losses = 0;           // recovery stories opened
  std::size_t requests = 0;
  std::size_t repairs = 0;
  std::size_t recoveries = 0;

  // Detection -> recovery latency percentiles, seconds (virtual time under
  // sim — deterministic, the values BENCH_workload.json gates on).
  double recovery_p50 = 0.0;
  double recovery_p99 = 0.0;
  double recovery_max = 0.0;

  std::vector<trace::RecoveryStory> stories;  // sorted by ADU

  // Deterministic digest of the folded timeline + counters: two sim runs
  // of the same spec produce the same fingerprint.
  std::uint64_t fingerprint = 0;
};

// Runs on the simulator backend (star topology, sequential kernel).
WorkloadResult run_workload_sim(const WorkloadSpec& spec);

// Runs over real UDP multicast on loopback; wall-clock duration = spec
// duration.  Throws transport::TransportError when multicast is
// unavailable; gate with transport::UdpTransport::available().
WorkloadResult run_workload_udp(const WorkloadSpec& spec);

// Empty when two runs of one spec agree story for story (by
// RecoveryStory::timing_free), in scripted drops and in the fold's counts;
// otherwise a readable description of the first difference.
std::string diff_runs(const WorkloadResult& a, const WorkloadResult& b);

}  // namespace srm::workload
