// Scheduler flight recorder: a fixed-capacity ring of compact records, one
// per scheduler action (arm/reschedule/disarm/fire), kept alongside — never
// inside — the event queue. The recorder is pure bookkeeping: it observes
// the scheduler through Simulator's gated hooks and can never schedule,
// cancel, or reorder anything, so a run with the recorder attached is
// bit-identical (same trace digest) to the same run without it.
//
// Causality model: while an event's callback executes, the simulator tracks
// that event's sequence number; every arm performed by the callback stamps
// it into the armed slot as `parent_seq`. A fire record therefore carries
// the seq of the event whose handler armed it, and chains remain walkable
// from fire records alone even after the arm records rotate out of the
// ring (parent links point at seqs, not at ring positions).
//
// Wall-time attribution: src/ code must not read wall clocks (the
// `wall-clock` lint rule), so the recorder takes an injected probe —
// installed only by the harness/tools layer — and attributes per-kind
// callback wall time through it. Wall readings live in the recorder and
// the RunProfiler only; they must never reach a MetricsRegistry or digest.
#ifndef CRN_SIM_FLIGHT_RECORDER_H_
#define CRN_SIM_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace crn::sim {

class StateReader;
class StateWriter;

using EventId = std::uint64_t;

enum class SchedAction : std::uint8_t {
  kArm = 0,
  kReschedule = 1,
  kDisarm = 2,
  kFire = 3,
};

inline const char* ToString(SchedAction action) {
  switch (action) {
    case SchedAction::kArm:
      return "arm";
    case SchedAction::kReschedule:
      return "resched";
    case SchedAction::kDisarm:
      return "disarm";
    case SchedAction::kFire:
      return "fire";
  }
  return "?";
}

// One scheduler action. `seq` is the queue entry acted on; `parent_seq` is
// the seq of the event whose callback performed the action (0 = performed
// outside any event, e.g. pre-run setup).
struct FlightRecord {
  EventId seq = 0;
  TimeNs time = 0;
  EventId parent_seq = 0;
  std::int32_t owner = -1;
  std::uint16_t kind = 0;
  SchedAction action = SchedAction::kArm;
};

// Deterministic per-kind action counts — exact functions of (scenario,
// seed); exported as sched.fires{kind=...} etc. Unlike the ring, counters
// cover the whole run (they never rotate out).
struct KindCounters {
  std::int64_t arms = 0;
  std::int64_t reschedules = 0;
  std::int64_t disarms = 0;
  std::int64_t fires = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultDepth = 1U << 16U;

  explicit FlightRecorder(std::size_t depth = kDefaultDepth);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // --- scheduler-facing hooks (called by Simulator, gated on attachment) ---

  void Record(SchedAction action, EventId seq, TimeNs time, std::uint16_t kind,
              std::int32_t owner, EventId parent_seq);

  // Kind-name mirror: the registry lives in the Simulator, but the recorder
  // keeps its own copy so dumps and trails stay decodable after the
  // simulator is gone (RunOptions hands the recorder out past run scope).
  void SetKindNames(std::vector<std::string> names);
  void OnKindRegistered(std::uint16_t id, std::string_view name);

  // Wall probe (seconds, arbitrary epoch). Installed by harness/tools code
  // only; without a probe all wall attribution stays zero.
  void set_wall_probe(std::function<double()> probe) {
    wall_probe_ = std::move(probe);
  }
  [[nodiscard]] bool has_wall_probe() const {
    return static_cast<bool>(wall_probe_);
  }
  [[nodiscard]] double WallNow() const {
    return wall_probe_ ? wall_probe_() : 0.0;
  }
  void AddFireWall(std::uint16_t kind, double seconds);

  // --- accessors ---

  [[nodiscard]] std::size_t depth() const { return ring_.size(); }
  // Records currently held (<= depth()).
  [[nodiscard]] std::size_t size() const { return count_; }
  // Records ever written, including ones that rotated out.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  // i-th stored record, oldest first (0 <= i < size()).
  [[nodiscard]] const FlightRecord& At(std::size_t i) const;
  [[nodiscard]] const std::vector<std::string>& kind_names() const {
    return kind_names_;
  }
  [[nodiscard]] std::string_view KindName(std::uint16_t id) const;
  // Per-kind counters, indexed by kind id (size tracks the largest kind
  // seen by Record(), not the full registry).
  [[nodiscard]] const std::vector<KindCounters>& counters() const {
    return counters_;
  }
  // Accumulated callback wall seconds for `kind` (0.0 without a probe).
  [[nodiscard]] double fire_wall_seconds(std::uint16_t kind) const;

  void Clear();

  // --- serialization ---

  // Binary dump: header + kind table + per-kind counters + stored records
  // (oldest first). Fixed little-endian layout, documented in DESIGN.md §13.
  void WriteDump(std::ostream& out) const;

  struct Dump {
    std::uint64_t depth = 0;
    std::uint64_t total_recorded = 0;
    std::vector<std::string> kind_names;
    std::vector<KindCounters> counters;
    std::vector<FlightRecord> records;  // oldest first
  };
  // Decodes a WriteDump() stream. Returns false (and sets *error) on a
  // malformed dump; never throws.
  static bool ReadDump(std::istream& in, Dump* out, std::string* error);

  // Checkpoint protocol (sim/checkpoint.h, section "flight"): ring contents
  // (oldest first), totals, per-kind counters, and the kind-name mirror.
  // LoadState rejects a blob saved from a recorder of another depth.
  // Wall attribution (fire_wall_/wall_probe_) is deliberately excluded —
  // wall readings are nondeterministic and must not survive into a resumed
  // run's comparisons.
  void SaveState(StateWriter& writer) const;
  void LoadState(StateReader& reader);

  // Human-readable decode of the newest `max_records` records, oldest
  // first — the "last N" trail printed on invariant violations and escaped
  // exceptions.
  [[nodiscard]] std::string FormatTrail(std::size_t max_records) const;
  static std::string FormatRecord(const FlightRecord& record,
                                  const std::vector<std::string>& kind_names);

 private:
  // The "flight" section's field list, over a Dump: the save side fills one
  // from the ring, the load side adopts it only when the whole section read
  // cleanly.
  template <class Self, class Ar>
  static void Transfer(Self& dump, Ar& ar);

  std::vector<FlightRecord> ring_;
  std::size_t next_ = 0;   // ring slot the next record lands in
  std::size_t count_ = 0;  // stored records (saturates at ring_.size())
  std::uint64_t total_ = 0;
  std::vector<std::string> kind_names_;
  std::vector<KindCounters> counters_;
  std::vector<double> fire_wall_;
  std::function<double()> wall_probe_;
};

}  // namespace crn::sim

#endif  // CRN_SIM_FLIGHT_RECORDER_H_
