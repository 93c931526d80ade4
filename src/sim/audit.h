// Simulator-level audit primitives.
//
// TraceDigest fingerprints an event stream with 64-bit FNV-1a so two runs
// can be compared for bit-identical behaviour without storing either trace
// (the determinism guarantee every figure-regeneration bench relies on).
// EventTimeAuditor re-verifies, from outside the scheduler, that the
// simulation clock never runs backwards — the property every other layer
// silently assumes. Both are passive observers: attaching them never
// perturbs the event order or any RNG stream.
#ifndef CRN_SIM_AUDIT_H_
#define CRN_SIM_AUDIT_H_

#include <cstdint>
#include <string_view>

#include "sim/simulator.h"
#include "sim/time.h"

namespace crn::sim {

// Order-sensitive 64-bit FNV-1a accumulator. Mixing the same sequence of
// values always yields the same digest; any insertion, deletion, or
// reordering changes it with overwhelming probability.
class TraceDigest {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;

  // Mixes the 8 bytes of `value`, least-significant first.
  void Mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= kPrime;
    }
  }

  void MixSigned(std::int64_t value) { Mix(static_cast<std::uint64_t>(value)); }

  // Mixes the exact bit pattern, so ±0, infinities, and NaN payloads all
  // participate — a digest match certifies bit-identical doubles.
  void MixDouble(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }

  void MixString(std::string_view text) {
    for (char c : text) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= kPrime;
    }
    Mix(text.size());  // length delimiter: "ab"+"c" != "a"+"bc"
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

  // Checkpoint field list (sim/checkpoint.h). The digest is a pure fold
  // over the mixed sequence, so restoring the accumulator and replaying the
  // suffix equals digesting the whole run.
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar) {
    ar.Io(self.hash_);
  }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

// Watches a Simulator and counts events whose timestamp precedes the one
// before it. The scheduler's heap ordering makes violations impossible by
// construction; this auditor keeps that claim machine-checked when the
// scheduler itself is refactored.
class EventTimeAuditor {
 public:
  // Registers on `simulator`; the auditor must outlive every run it
  // observes. Attach at most once.
  void Attach(Simulator& simulator);

  [[nodiscard]] std::uint64_t events_observed() const { return events_observed_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] TimeNs last_time() const { return last_time_; }
  [[nodiscard]] bool ok() const { return violations_ == 0; }

  // Checkpoint field list (sim/checkpoint.h); Attach() must still be
  // called on the fresh simulator.
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar) {
    ar.Io(self.events_observed_);
    ar.Io(self.violations_);
    ar.Io(self.last_time_);
  }

 private:
  bool attached_ = false;
  std::uint64_t events_observed_ = 0;
  std::uint64_t violations_ = 0;
  TimeNs last_time_ = 0;
};

}  // namespace crn::sim

#endif  // CRN_SIM_AUDIT_H_
