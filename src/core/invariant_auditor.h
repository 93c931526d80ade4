// Runtime invariant auditor — the always-on verification layer of the
// correctness tooling (DESIGN.md §"Correctness tooling").
//
// The repo's credibility rests on two machine-checkable claims: the PCR
// theory guarantees every concurrent transmission set satisfies both
// networks' SIR constraints (Lemmas 2–3), and the simulator is
// bit-deterministic per seed. Attached to a Simulator + CollectionMac pair
// before a run, the auditor verifies while the simulation executes:
//
//  * the event clock never decreases (sim::EventTimeAuditor);
//  * concurrently active SU transmitters stay pairwise ≥ R_pcr apart — the
//    R-set precondition carrier sensing must enforce in Algorithm 1's
//    continuous-backoff regime (auto-disabled for the conventional-MAC
//    emulation, whose same-slot collisions are modelled deliberately);
//  * every completed SU reception held SIR ≥ η_s for its whole airtime
//    (Lemma 3's concurrent-set guarantee, via the recorded SIR floor);
//  * SU transmissions never flip an active PU reception from success to
//    failure (Lemma 2), re-derived from the physical interference model at
//    sampled transmission starts with an isolated RNG stream;
//  * the routing table stays acyclic and sink-reaching over live nodes
//    across churn (FailNode / UpdateNextHop) — a route may legitimately
//    dead-end at a failed node awaiting repair, but never cycle.
//
// It also folds every terminated transmission attempt into an
// order-sensitive FNV-1a digest (sim::TraceDigest), so two runs of the same
// seed can be compared bit-for-bit without storing either trace — the
// dual-run determinism check in collection.h and `addc_sim --audit` both
// consume that digest.
//
// The auditor is strictly passive with respect to the simulation: it draws
// randomness only from its own seeded stream and never schedules, cancels,
// or reorders events, so attaching it cannot change a run's behaviour or
// its digest.
#ifndef CRN_CORE_INVARIANT_AUDITOR_H_
#define CRN_CORE_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geom/vec2.h"
#include "mac/collection_mac.h"
#include "obs/metrics.h"
#include "pu/primary_network.h"
#include "sim/audit.h"
#include "sim/flight_recorder.h"
#include "sim/simulator.h"
#include "spectrum/interference.h"

namespace crn::core {

// Lemma 2 at one PU receiver, split so the auditor can decide almost every
// reception from a reordered sum (DESIGN.md §7, "Deciding PU protection
// from a reordered sum"). `signal` is the PU's own received power,
// `interference_pu` the other active PUs' power summed in id order,
// `interference_su` the active SUs' power, `eta` the linear η_p > 0.
namespace pu_protection {

// The exact predicate: the reception holds without SUs (no PU interference,
// or SIR ≥ η) but fails with them.
[[nodiscard]] bool Flipped(double signal, double interference_pu,
                           double interference_su, double eta);

// Relative half-width of the window around an approximate PU sum S̃ of
// `terms` interferers that provably contains the exact sequential sum,
// whatever the order of S̃'s additions and however the compiler contracts
// each term's d² into an FMA. Infinite (nothing is decided) past 2^20 terms.
[[nodiscard]] double Margin(std::size_t terms, double alpha);

enum class Verdict : std::uint8_t {
  kFailsWithoutSu,  // no violation: the reception fails without SUs
  kHoldsWithSu,     // no violation: the reception holds with SUs
  kFlipped,         // a violation
  kUndecided,       // the exact sum must decide
};

// Decides Flipped from S̃ when every sum in [S̃(1−margin), S̃(1+margin)]
// gives the same answer; kUndecided otherwise, and whenever S̃ is not a
// comfortably normal number.
[[nodiscard]] Verdict Decide(double signal, double approx_pu,
                             double interference_su, double eta, double margin);

// ApproxInterference's arrays are padded to a multiple of this many
// doubles, a multiple of every lane width.
inline constexpr std::size_t kLanes = 4;

// Lane widths this host can run, widest first (4 needs AVX2, 2 is the
// baseline); BestWidth() is the first, picked once per process.
[[nodiscard]] std::vector<int> SupportedWidths();
[[nodiscard]] int BestWidth();

// Σ_q P·d(q, rx)^{-α} over the `count` positions (xs[q], ys[q]), each term
// the same expression as PathLoss::ReceivedPowerSquared, summed in `width`
// independent lanes. An entry with xs[q] = +inf adds exactly 0: the
// padding and the receiver's own PU. `count` is a multiple of kLanes.
[[nodiscard]] double ApproxInterference(const double* xs, const double* ys,
                                        std::size_t count, geom::Vec2 rx,
                                        double power, const spectrum::PathLoss& loss,
                                        int width);

}  // namespace pu_protection

struct AuditConfig {
  bool check_event_time = true;
  // Pairwise transmitter separation. min_separation 0 uses the MAC's
  // configured R_pcr.
  bool check_min_separation = true;
  double min_separation = 0.0;
  bool check_su_sir = true;
  // PU protection needs a PrimaryNetwork* at Attach (receiver sampling);
  // checked at every `pu_check_stride`-th transmission start.
  bool check_pu_protection = true;
  std::int32_t pu_check_stride = 4;
  bool check_routing = true;
  // Seed of the auditor's private receiver-sampling stream — isolated from
  // every run stream so auditing never perturbs the simulation.
  std::uint64_t rng_seed = 0x5EEDA0D17ULL;
  // Human-readable descriptions are kept for the first few violations only;
  // the counters below are always exact.
  std::size_t max_recorded_violations = 8;
};

struct AuditReport {
  std::uint64_t events_observed = 0;
  std::int64_t time_violations = 0;
  std::int64_t tx_starts = 0;
  std::int64_t separation_checks = 0;
  std::int64_t separation_violations = 0;
  std::int64_t receptions_checked = 0;
  std::int64_t su_sir_violations = 0;
  std::int64_t pu_checks = 0;
  std::int64_t pu_protection_violations = 0;
  std::int64_t routing_audits = 0;
  std::int64_t routing_violations = 0;
  // FNV-1a digest of the kTxEnd events (same seed ⇒ same digest).
  std::uint64_t trace_digest = 0;
  std::vector<std::string> first_violations;
  // Decoded flight-recorder trail captured at the *first* violation — the
  // last-N causal event history leading into it. Empty unless a recorder
  // was bound (BindFlightRecorder) and a violation occurred.
  std::string flight_trail;

  [[nodiscard]] std::int64_t total_violations() const {
    return time_violations + separation_violations + su_sir_violations +
           pu_protection_violations + routing_violations;
  }
  [[nodiscard]] bool ok() const { return total_violations() == 0; }
  // One-line counters summary for CLI / test-failure output.
  [[nodiscard]] std::string Summary() const;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(const AuditConfig& config = {});
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  // Subscribes to the MAC's events; call once, before the run starts. `primary`
  // may be null, which disables the PU-protection check (it needs mutable
  // access for receiver sampling). The auditor must outlive the run.
  void Attach(sim::Simulator& simulator, mac::CollectionMac& mac,
              pu::PrimaryNetwork* primary = nullptr);

  // Mirrors every violation counter into `registry` as
  // audit.violations_total{invariant=...} — one labeled counter per audited
  // invariant, kept exactly in sync with the report (the addc_sim
  // regression test cross-checks the totals). Call before the run; the
  // registry must outlive the auditor's Finalize().
  void BindMetrics(obs::MetricsRegistry& registry);

  // Binds a flight recorder for violation forensics: the first recorded
  // violation snapshots the recorder's decoded last-N trail into
  // AuditReport::flight_trail, so "separation violated at t=..." arrives
  // with the causal event history that led into it. Purely observational —
  // the recorder is read, never written. Call before the run.
  void BindFlightRecorder(const sim::FlightRecorder* recorder,
                          std::size_t trail_depth = 32);

  // Re-validates the routing table immediately — call after FailNode /
  // UpdateNextHop churn; Finalize() runs it once more regardless.
  void VerifyRouting();

  // Folds the simulator-side counters in and returns the completed report.
  // Idempotent; the run must be finished.
  const AuditReport& Finalize();

  [[nodiscard]] const AuditReport& report() const { return report_; }

  // Checkpoint protocol (sim/checkpoint.h, section "audit"): the report
  // counters, the trace digest accumulator, the private receiver-sampling
  // stream, and the active-transmission watch list. Attach/Bind* must still
  // be called on the fresh run before LoadState.
  void SaveState(sim::StateWriter& writer) const;
  void LoadState(sim::StateReader& reader);

 private:
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar);

  struct ActiveTx {
    mac::NodeId transmitter = graph::kInvalidNode;
    geom::Vec2 position;
  };

  void OnTxStart(mac::NodeId transmitter);
  void OnTxEnd(const mac::MacEvent& event);
  void CheckPuProtection();
  void RecordViolation(std::string message);

  AuditConfig config_;
  AuditReport report_;
  sim::EventTimeAuditor time_auditor_;
  sim::TraceDigest digest_;
  sim::Simulator* simulator_ = nullptr;
  mac::CollectionMac* mac_ = nullptr;
  pu::PrimaryNetwork* primary_ = nullptr;
  Rng receiver_rng_;
  std::vector<ActiveTx> active_;
  // Active PU positions for pu_protection::ApproxInterference, refilled at
  // every check (scratch, not state: never checkpointed).
  std::vector<double> pu_x_;
  std::vector<double> pu_y_;
  bool finalized_ = false;
  // Optional violation-forensics source (BindFlightRecorder).
  const sim::FlightRecorder* flight_recorder_ = nullptr;
  std::size_t flight_trail_depth_ = 32;
  // Optional metric mirrors (BindMetrics); null when no registry is bound.
  obs::Counter* viol_time_ = nullptr;
  obs::Counter* viol_separation_ = nullptr;
  obs::Counter* viol_su_sir_ = nullptr;
  obs::Counter* viol_pu_protection_ = nullptr;
  obs::Counter* viol_routing_ = nullptr;
};

}  // namespace crn::core

#endif  // CRN_CORE_INVARIANT_AUDITOR_H_
