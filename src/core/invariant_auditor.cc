#include "core/invariant_auditor.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "sim/checkpoint.h"

namespace crn::core {
namespace pu_protection {

bool Flipped(double signal, double interference_pu, double interference_su,
             double eta) {
  const bool ok_without_su =
      interference_pu <= 0.0 || signal / interference_pu >= eta;
  const bool ok_with_su = signal / (interference_pu + interference_su) >= eta;
  return ok_without_su && !ok_with_su;
}

// Why the window holds (u = 2^-53, γ_n = nu/(1 − nu)). Let τ_q be the
// exact loop's terms and I their left-to-right sum; ApproxInterference's
// terms τ'_q and lane sum S̃.
//  * Terms. d² = dx² + dy² is within γ_2 of its real value whether or not
//    an FMA fuses one product, so the two d² differ by a factor at most
//    δ = 2γ_2/(1 − γ_2); the kMinDistance clamp only narrows that gap.
//    P/(d²·d²) and P·pow(d², −α/2) (pow within 1 ulp = 2u) then differ by
//    at most ε = (1 + δ)^h·((1 + 2u)/(1 − 2u))² − 1, h = max(2, α/2).
//  * Sums. Any order of summing n non-negative terms errs by at most
//    γ_{n−1}·Σ. Hence |S̃ − I| ≤ (2γ_{n−1} + ε + γ_{n−1}ε)/(1 − γ_{n−1})·I,
//    which is at most ρ = 2γ_n + ε for n ≤ 2^20.
//  * Window. I then lies in [S̃/(1 + ρ), S̃/(1 − ρ)], inside the rounded
//    [S̃(1 − m), S̃(1 + m)] for m = 2ρ + 2u.
// Underflowed terms break the relative bounds but add at most a few
// 2^-1074 each; Decide acts only on S̃ in [2^-900, 2^900], where that is
// far below u·S̃ and no term or sum overflows.
double Margin(std::size_t terms, double alpha) {
  constexpr std::size_t kMaxTerms = std::size_t{1} << 20;
  if (terms > kMaxTerms) return std::numeric_limits<double>::infinity();
  constexpr double u = 0x1p-53;
  const auto gamma = [](double n) { return n * u / (1.0 - n * u); };
  const double delta = 2.0 * gamma(2.0) / (1.0 - gamma(2.0));
  const double rounding = (1.0 + 2.0 * u) / (1.0 - 2.0 * u);
  const double epsilon =
      std::pow(1.0 + delta, std::max(2.0, alpha / 2.0)) * rounding * rounding - 1.0;
  const double rho = 2.0 * gamma(static_cast<double>(terms)) + epsilon;
  return 2.0 * rho + 2.0 * u;
}

Verdict Decide(double signal, double approx_pu, double interference_su, double eta,
               double margin) {
  // fl(signal / x) falls and fl(x + interference_su) rises with x, so each
  // comparison that holds at the window's far end holds for every sum in it.
  if (!(approx_pu >= 0x1p-900 && approx_pu <= 0x1p900 && margin < 0.5)) {
    return Verdict::kUndecided;
  }
  const double low = approx_pu * (1.0 - margin);
  const double high = approx_pu * (1.0 + margin);
  if (signal / (high + interference_su) >= eta) return Verdict::kHoldsWithSu;
  if (signal / low < eta) return Verdict::kFailsWithoutSu;
  if (signal / high >= eta && signal / (low + interference_su) < eta) {
    return Verdict::kFlipped;
  }
  return Verdict::kUndecided;
}

namespace {

// kWidth doubles in one register (GCC/Clang vector extensions). One
// accumulator measured faster than two or four: the divisions bound the
// loop, not the add chain. Every width's sum lies in the same window, so
// the width never changes a verdict.
template <int kWidth>
struct LaneVector {
  typedef double type __attribute__((vector_size(8 * kWidth)));
};

template <int kWidth>
[[gnu::always_inline]] inline double SumLanes(const double* xs, const double* ys,
                                              std::size_t count, geom::Vec2 rx,
                                              double power,
                                              const spectrum::PathLoss& loss) {
  using V = typename LaneVector<kWidth>::type;
  constexpr double kMinSq =
      spectrum::PathLoss::kMinDistance * spectrum::PathLoss::kMinDistance;
  const V rx_x = V{} + rx.x;
  const V rx_y = V{} + rx.y;
  const V min_sq = V{} + kMinSq;
  const V watts = V{} + power;
  const bool alpha_is_four = loss.alpha() == 4.0;
  V sum = {};
  for (std::size_t i = 0; i < count; i += kWidth) {
    V x;
    V y;
    __builtin_memcpy(&x, xs + i, sizeof x);
    __builtin_memcpy(&y, ys + i, sizeof y);
    const V dx = x - rx_x;
    const V dy = y - rx_y;
    V d2 = dx * dx + dy * dy;
    d2 = d2 < min_sq ? min_sq : d2;
    if (alpha_is_four) {
      sum += watts / (d2 * d2);
    } else {
      for (int e = 0; e < kWidth; ++e) sum[e] += loss.ReceivedPowerSquared(power, d2[e]);
    }
  }
  double total = 0.0;
  for (int e = 0; e < kWidth; ++e) total += sum[e];
  return total;
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] double SumLanes4(const double* xs, const double* ys,
                                         std::size_t count, geom::Vec2 rx, double power,
                                         const spectrum::PathLoss& loss) {
  return SumLanes<4>(xs, ys, count, rx, power, loss);
}
#endif

}  // namespace

std::vector<int> SupportedWidths() {
  std::vector<int> widths;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) widths.push_back(4);
#endif
  widths.push_back(2);
  return widths;
}

int BestWidth() {
  static const int best = SupportedWidths().front();
  return best;
}

double ApproxInterference(const double* xs, const double* ys, std::size_t count,
                          geom::Vec2 rx, double power, const spectrum::PathLoss& loss,
                          int width) {
  CRN_DCHECK(count % kLanes == 0);
#if defined(__x86_64__) || defined(__i386__)
  if (width == 4) return SumLanes4(xs, ys, count, rx, power, loss);
#endif
  CRN_DCHECK(width == 2) << "lane width " << width;
  return SumLanes<2>(xs, ys, count, rx, power, loss);
}

}  // namespace pu_protection

std::string AuditReport::Summary() const {
  std::ostringstream out;
  out << (ok() ? "OK" : "VIOLATIONS") << " — events=" << events_observed
      << " tx_starts=" << tx_starts << " time_violations=" << time_violations
      << " separation=" << separation_violations << "/" << separation_checks
      << " su_sir=" << su_sir_violations << "/" << receptions_checked
      << " pu_protection=" << pu_protection_violations << "/" << pu_checks
      << " routing=" << routing_violations << "/" << routing_audits
      << " digest=" << trace_digest;
  return out.str();
}

InvariantAuditor::InvariantAuditor(const AuditConfig& config)
    : config_(config), receiver_rng_(config.rng_seed) {}

void InvariantAuditor::Attach(sim::Simulator& simulator, mac::CollectionMac& mac,
                              pu::PrimaryNetwork* primary) {
  CRN_CHECK(mac_ == nullptr) << "InvariantAuditor attached twice";
  simulator_ = &simulator;
  mac_ = &mac;
  primary_ = primary;
  if (config_.check_event_time) {
    time_auditor_.Attach(simulator);
  }
  mac.AddObserver([this](const mac::MacEvent& event) {
    switch (event.kind) {
      case mac::MacEvent::Kind::kTxStart:
        OnTxStart(event.node);
        break;
      case mac::MacEvent::Kind::kTxEnd:
        OnTxEnd(event);
        break;
      default:
        break;
    }
  });
}

void InvariantAuditor::BindMetrics(obs::MetricsRegistry& registry) {
  viol_time_ =
      &registry.GetCounter("audit.violations_total", {{"invariant", "event-time"}});
  viol_separation_ =
      &registry.GetCounter("audit.violations_total", {{"invariant", "separation"}});
  viol_su_sir_ =
      &registry.GetCounter("audit.violations_total", {{"invariant", "su-sir"}});
  viol_pu_protection_ = &registry.GetCounter("audit.violations_total",
                                             {{"invariant", "pu-protection"}});
  viol_routing_ =
      &registry.GetCounter("audit.violations_total", {{"invariant", "routing"}});
}

void InvariantAuditor::OnTxStart(mac::NodeId transmitter) {
  ++report_.tx_starts;
  const geom::Vec2 position = mac_->position(transmitter);
  if (config_.check_min_separation) {
    const double min_separation = config_.min_separation > 0.0
                                      ? config_.min_separation
                                      : mac_->config().pcr;
    const double min_separation_sq = min_separation * min_separation;
    for (const ActiveTx& other : active_) {
      ++report_.separation_checks;
      if (geom::DistanceSquared(other.position, position) < min_separation_sq) {
        ++report_.separation_violations;
        if (viol_separation_ != nullptr) viol_separation_->Add();
        std::ostringstream out;
        out << "t=" << simulator_->now() << ": transmitters " << transmitter
            << " and " << other.transmitter << " concurrently active "
            << geom::Distance(other.position, position) << " m apart (< R_pcr "
            << min_separation << " m)";
        RecordViolation(out.str());
      }
    }
  }
  active_.push_back(ActiveTx{transmitter, position});
  if (config_.check_pu_protection && primary_ != nullptr &&
      config_.pu_check_stride > 0 &&
      report_.tx_starts % config_.pu_check_stride == 0) {
    CheckPuProtection();
  }
}

void InvariantAuditor::CheckPuProtection() {
  // Mirrors CollectionMac::AuditPrimaryReceptions, but re-derived here from
  // first principles (and at transmission starts rather than sampled slots)
  // so a bug in the MAC's own audit cannot mask a protection failure. A
  // violation is counted only when secondary interference flips a PU
  // reception from success to failure — PU-on-PU interference is the
  // primary network's own business (Lemma 2 scopes the guarantee to SUs).
  // The PU sum is first taken in lanes; the in-order loop below stays the
  // one exact predicate and runs only when that sum cannot decide.
  primary_->SampleReceiverPositions(receiver_rng_);
  const spectrum::PathLoss loss(mac_->config().alpha);
  const double eta = mac_->config().eta_p.linear();
  const double su_power = mac_->config().su_power;
  const double pu_power = primary_->config().power;
  const std::vector<pu::PuId>& active_pus = primary_->active_transmitters();
  const std::size_t count = active_pus.size();
  const std::size_t padded =
      (count + pu_protection::kLanes - 1) / pu_protection::kLanes * pu_protection::kLanes;
  constexpr double kAbsent = std::numeric_limits<double>::infinity();
  pu_x_.assign(padded, kAbsent);
  pu_y_.assign(padded, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const geom::Vec2 position = primary_->position(active_pus[i]);
    pu_x_[i] = position.x;
    pu_y_[i] = position.y;
  }
  const double margin = pu_protection::Margin(count > 0 ? count - 1 : 0, loss.alpha());
  const int width = pu_protection::BestWidth();
  for (std::size_t i = 0; i < count; ++i) {
    const pu::PuId p = active_pus[i];
    const geom::Vec2 rx = primary_->receiver_position(p);
    const double signal = loss.ReceivedPowerSquared(
        pu_power, geom::DistanceSquared(primary_->position(p), rx));
    double interference_su = 0.0;
    for (const ActiveTx& tx : active_) {
      interference_su +=
          loss.ReceivedPowerSquared(su_power, geom::DistanceSquared(tx.position, rx));
    }
    ++report_.pu_checks;
    pu_x_[i] = kAbsent;
    const double approx_pu = pu_protection::ApproxInterference(
        pu_x_.data(), pu_y_.data(), padded, rx, pu_power, loss, width);
    pu_x_[i] = primary_->position(p).x;
    pu_protection::Verdict verdict =
        pu_protection::Decide(signal, approx_pu, interference_su, eta, margin);
    if (verdict == pu_protection::Verdict::kUndecided) {
      double interference_pu = 0.0;
      for (pu::PuId q : active_pus) {
        if (q == p) continue;
        interference_pu += loss.ReceivedPowerSquared(
            pu_power, geom::DistanceSquared(primary_->position(q), rx));
      }
      if (pu_protection::Flipped(signal, interference_pu, interference_su, eta)) {
        verdict = pu_protection::Verdict::kFlipped;
      }
    }
    if (verdict == pu_protection::Verdict::kFlipped) {
      ++report_.pu_protection_violations;
      if (viol_pu_protection_ != nullptr) viol_pu_protection_->Add();
      std::ostringstream out;
      out << "t=" << simulator_->now() << ": SU interference flipped PU " << p
          << "'s reception below eta_p";
      RecordViolation(out.str());
    }
  }
}

void InvariantAuditor::OnTxEnd(const mac::MacEvent& event) {
  // The trace digest folds in every field a regression could silently skew;
  // a single reordered, re-timed, or re-scored attempt changes it.
  digest_.MixSigned(event.node);
  digest_.MixSigned(event.peer);
  digest_.MixSigned(event.start);
  digest_.MixSigned(event.end);
  digest_.Mix(static_cast<std::uint64_t>(event.outcome));
  digest_.MixSigned(event.packet.origin);
  digest_.MixSigned(event.packet.created);
  digest_.MixSigned(event.packet.hops);
  digest_.MixSigned(event.packet.snapshot);
  digest_.MixDouble(event.min_sir);

  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].transmitter == event.node) {
      active_[i] = active_.back();
      active_.pop_back();
      break;
    }
  }

  if (!config_.check_su_sir) return;
  // Aborted handoffs (PU returned mid-transmission) and half-duplex /
  // capture losses are modelled behaviours, not SIR-invariant breaches; the
  // Lemma 3 claim is about receptions the physical model scored.
  if (event.outcome == mac::TxOutcome::kSuccess ||
      event.outcome == mac::TxOutcome::kSirFailure) {
    ++report_.receptions_checked;
    if (event.outcome == mac::TxOutcome::kSirFailure ||
        event.min_sir < mac_->config().eta_s.linear()) {
      ++report_.su_sir_violations;
      if (viol_su_sir_ != nullptr) viol_su_sir_->Add();
      std::ostringstream out;
      out << "t=" << simulator_->now() << ": reception " << event.node
          << "->" << event.peer << " SIR floor " << event.min_sir
          << " below eta_s " << mac_->config().eta_s.linear();
      RecordViolation(out.str());
    }
  }
}

void InvariantAuditor::VerifyRouting() {
  if (!config_.check_routing || mac_ == nullptr) return;
  ++report_.routing_audits;
  const std::int32_t n = mac_->node_count();
  const mac::NodeId sink = mac_->sink();
  for (mac::NodeId v = 0; v < n; ++v) {
    if (v == sink || mac_->IsFailed(v)) continue;
    mac::NodeId cursor = v;
    std::int32_t steps = 0;
    // A live node's route must reach the sink — or dead-end at a failed
    // node awaiting repair — in < n hops; anything longer is a cycle.
    while (cursor != sink && !mac_->IsFailed(cursor)) {
      cursor = mac_->next_hop(cursor);
      if (++steps >= n) {
        ++report_.routing_violations;
        if (viol_routing_ != nullptr) viol_routing_->Add();
        std::ostringstream out;
        out << "t=" << simulator_->now() << ": routing cycle reachable from node "
            << v;
        RecordViolation(out.str());
        break;
      }
    }
  }
}

void InvariantAuditor::BindFlightRecorder(const sim::FlightRecorder* recorder,
                                          std::size_t trail_depth) {
  flight_recorder_ = recorder;
  flight_trail_depth_ = trail_depth;
}

void InvariantAuditor::RecordViolation(std::string message) {
  if (flight_recorder_ != nullptr && report_.flight_trail.empty()) {
    // First violation: snapshot the causal trail before further events
    // rotate it out of the ring.
    report_.flight_trail = flight_recorder_->FormatTrail(flight_trail_depth_);
  }
  if (report_.first_violations.size() < config_.max_recorded_violations) {
    report_.first_violations.push_back(std::move(message));
  }
}

void InvariantAuditor::SaveState(sim::StateWriter& writer) const {
  Transfer(*this, writer);
}

void InvariantAuditor::LoadState(sim::StateReader& reader) {
  CRN_CHECK(simulator_ != nullptr) << "LoadState before Attach()";
  Transfer(*this, reader);
}

template <class Self, class Ar>
void InvariantAuditor::Transfer(Self& self, Ar& ar) {
  if (!ar.BeginSection("audit")) return;
  sim::EventTimeAuditor::Transfer(self.time_auditor_, ar);
  sim::TraceDigest::Transfer(self.digest_, ar);
  ar.Io(self.receiver_rng_);
  auto& report = self.report_;
  ar.Io(report.tx_starts);
  ar.Io(report.separation_checks);
  ar.Io(report.separation_violations);
  ar.Io(report.receptions_checked);
  ar.Io(report.su_sir_violations);
  ar.Io(report.pu_checks);
  ar.Io(report.pu_protection_violations);
  ar.Io(report.routing_audits);
  ar.Io(report.routing_violations);
  ar.Seq(report.first_violations);
  ar.Io(report.flight_trail);
  ar.Seq(self.active_, [n = self.mac_->node_count()](auto& io, auto& tx) {
    io.Id(tx.transmitter, n);
    io.Io(tx.position.x);
    io.Io(tx.position.y);
  });
  ar.EndSection();
}

const AuditReport& InvariantAuditor::Finalize() {
  CRN_CHECK(mac_ != nullptr) << "Finalize() before Attach()";
  if (finalized_) return report_;
  finalized_ = true;
  VerifyRouting();
  if (config_.check_event_time) {
    report_.events_observed = time_auditor_.events_observed();
    report_.time_violations = static_cast<std::int64_t>(time_auditor_.violations());
    if (viol_time_ != nullptr) viol_time_->Add(report_.time_violations);
  }
  report_.trace_digest = digest_.value();
  return report_;
}

}  // namespace crn::core
