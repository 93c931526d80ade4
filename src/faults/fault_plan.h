// Deterministic fault plans (DESIGN.md §9): a declarative description of
// everything that goes wrong during a run — SU crashes and recoveries,
// sensing-error bursts, primary-activity perturbations — either scripted on
// an explicit timeline or drawn from seeded stochastic generators. A plan is
// pure data; CompileFaultTimeline() turns it into a sorted event list that
// is bit-reproducible from (plan, seed), so any faulted run can be replayed
// exactly and two MACs can be benchmarked under the *same* adversity.
#ifndef CRN_FAULTS_FAULT_PLAN_H_
#define CRN_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/unit_disk_graph.h"
#include "sim/time.h"

namespace crn::faults {

enum class FaultKind : std::uint8_t {
  kCrash = 0,             // SU leaves the network (queue contents are lost)
  kRecover,               // a crashed SU rejoins, empty-handed
  kSensingBurstStart,     // spectrum-sensing error rates jump for a window
  kSensingBurstEnd,
  kPuActivityStart,       // primary duty cycle p_t is perturbed for a window
  kPuActivityEnd,
};
inline constexpr int kFaultKindCount = 6;

const char* ToString(FaultKind kind);

// One compiled fault. Which payload fields are meaningful depends on `kind`:
// crashes/recoveries name a node; sensing bursts carry the error rates the
// window imposes; PU perturbations carry the replacement activity.
struct FaultEvent {
  sim::TimeNs time = 0;
  FaultKind kind = FaultKind::kCrash;
  graph::NodeId node = graph::kInvalidNode;
  double false_alarm = 0.0;
  double missed_detection = 0.0;
  double pu_activity = 0.0;
};

// Poisson crash process: victims arrive at `rate_per_s` over [start, end),
// each drawn uniformly from the currently-live non-sink SUs. A non-negative
// `recover_after` schedules the matching recovery that much later (< 0 means
// crashes are permanent).
struct CrashGenerator {
  double rate_per_s = 0.0;
  sim::TimeNs recover_after = -1;
  sim::TimeNs start = 0;
  sim::TimeNs end = -1;  // -1: the plan horizon
};

// Poisson process of network-wide sensing-error bursts: while a burst is
// active every SU senses with the given false-alarm / missed-detection
// rates. Overlapping bursts extend each other (rates are not additive).
struct SensingBurstGenerator {
  double rate_per_s = 0.0;
  double false_alarm = 0.1;
  double missed_detection = 0.1;
  sim::TimeNs duration = 0;
  sim::TimeNs start = 0;
  sim::TimeNs end = -1;  // -1: the plan horizon
};

// The full plan. `scripted` events are taken verbatim; generators are
// expanded by CompileFaultTimeline() using dedicated RNG streams. An empty
// plan (no scripted events, no generators) compiles to an empty timeline and
// a run with such a plan attached is byte-identical to one without.
struct FaultPlan {
  std::vector<FaultEvent> scripted;
  std::vector<CrashGenerator> crash_generators;
  std::vector<SensingBurstGenerator> burst_generators;

  // Generators draw arrivals in [0, horizon).
  sim::TimeNs horizon = 10 * sim::kSecond;
  // Delay between a crash and the self-healing pass it triggers (models the
  // time neighbors need to notice the silence).
  sim::TimeNs repair_delay = sim::kMillisecond;
  // Consecutive failed transmissions toward a dead next hop before the head
  // packet is dropped (0 = retry forever); forwarded into MacConfig.
  std::int32_t retx_budget = 0;

  [[nodiscard]] bool empty() const {
    return scripted.empty() && crash_generators.empty() && burst_generators.empty();
  }
};

// Parses the textual plan format (one directive per line, '#' comments):
//
//   at <ms> crash <node>
//   at <ms> recover <node>
//   at <ms> sensing_burst <false_alarm> <missed_detection> <duration_ms>
//   at <ms> pu_activity <p> <duration_ms>
//   gen crash <rate_per_s> <recover_after_ms>        (< 0: permanent)
//   gen sensing_burst <rate_per_s> <fa> <md> <duration_ms>
//   option horizon_ms <ms>
//   option repair_delay_ms <ms>
//   option retx_budget <k>
//
// Returns false and fills `error` (with a line and column) on malformed
// input. Besides syntax, it rejects non-finite numbers, ms values whose
// nanoseconds do not fit in int64, and rates above 1e9 /s (a mean gap below
// the 1 ns clock).
bool ParsePlanText(const std::string& text, FaultPlan& plan, std::string& error);

// ParsePlanText over the contents of `path`. Returns false and fills
// `error` (naming the file) if it cannot be read or does not parse.
bool LoadPlanFile(const std::string& path, FaultPlan& plan, std::string& error);

// Checks the plan's scripted events against a deployment of `node_count`
// nodes whose base station is `sink`, applied in timeline order (time,
// then kind, then plan order): every time is non-negative, every crash or
// recovery names an existing node other than the sink, no node crashes
// while down and none recovers while up. Returns an error naming the first
// offending event, or an empty string when the script is consistent.
std::string CheckScriptedEvents(const FaultPlan& plan, graph::NodeId node_count,
                                graph::NodeId sink);

// Expands generators and merges them with the scripted events into one
// timeline sorted by (time, kind, node). Deterministic in (plan, rng seed):
// each generator consumes its own named stream. Crash victims are drawn
// uniformly from nodes in [0, node_count) that are alive at arrival time,
// never `sink`; an arrival that finds no eligible victim is skipped.
// A script CheckScriptedEvents rejects fails a CRN_CHECK with its error,
// as does a scripted crash of a node a generated crash already took down.
std::vector<FaultEvent> CompileFaultTimeline(const FaultPlan& plan, const Rng& rng,
                                             graph::NodeId node_count,
                                             graph::NodeId sink);

}  // namespace crn::faults

#endif  // CRN_FAULTS_FAULT_PLAN_H_
