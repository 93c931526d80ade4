// Packet-lifecycle span tracer — the second half of the observability
// layer. Attached to a CollectionMac it records, in simulation time, one
// span per packet (created → delivered/dropped, with every relay enqueue in
// between), one span per transmission attempt, and one span per
// carrier-sense freeze interval. The in-memory records are exact (TimeNs),
// so a packet's delivery delay can be reconstructed to the nanosecond; the
// Chrome trace-event export (chrome_trace.h) renders the same records for
// chrome://tracing / Perfetto, and the attempts alone export as a CSV
// (`addc_sim --trace`) for gnuplot/pandas or summarize in-process.
//
// Determinism: records are stored in emission order (packets keyed by a
// sorted map), timestamps are simulation time only, and Digest() folds
// everything through the same FNV-1a scheme as the invariant auditor — two
// runs of one seed produce identical digests.
#ifndef CRN_OBS_SPAN_TRACER_H_
#define CRN_OBS_SPAN_TRACER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "mac/collection_mac.h"
#include "mac/packet.h"
#include "obs/chrome_trace.h"
#include "sim/time.h"

namespace crn::obs {

class PacketSpanTracer {
 public:
  // One enqueue instant at a relay on the packet's route.
  struct Hop {
    mac::NodeId node = -1;
    sim::TimeNs at = 0;
    std::int64_t queue_depth = 0;
  };

  // Full lifecycle of one packet, identified by (origin, snapshot).
  struct PacketSpan {
    mac::NodeId origin = -1;
    std::int32_t snapshot = 0;
    sim::TimeNs created = -1;
    sim::TimeNs delivered = -1;  // -1 unless it reached the base station
    sim::TimeNs dropped = -1;    // -1 unless lost with a failed node
    std::int32_t hops = 0;       // hop count at delivery
    std::vector<Hop> enqueues;   // relay arrivals, in order

    [[nodiscard]] bool terminal() const { return delivered >= 0 || dropped >= 0; }
    // Exact end-to-end delay in ns; -1 while in flight or dropped.
    [[nodiscard]] sim::TimeNs delivery_delay() const {
      return delivered >= 0 ? delivered - created : -1;
    }
  };

  // One transmission attempt (any outcome): a kTxEnd event.
  struct Attempt {
    mac::NodeId transmitter = -1;
    mac::NodeId receiver = -1;
    sim::TimeNs start = 0;
    sim::TimeNs end = 0;
    mac::TxOutcome outcome = mac::TxOutcome::kSuccess;
    mac::NodeId packet_origin = -1;
    std::int32_t packet_snapshot = 0;
    std::int32_t packet_hops = 0;  // hops the packet had made before it
    double min_sir = 0.0;          // reception SIR floor, +inf when unopposed
  };

  // Over the recorded attempts.
  struct AttemptSummary {
    std::int64_t attempts = 0;
    std::int64_t per_outcome[mac::kTxOutcomeCount] = {};
    // per_outcome / attempts; all zeros when there are no attempts.
    double per_outcome_fraction[mac::kTxOutcomeCount] = {};
    // Valid whenever attempts > 0 — including the degenerate trace where
    // every attempt shares one timestamp (first_start == last_end).
    sim::TimeNs first_start = 0;
    sim::TimeNs last_end = 0;
    // Airtime efficiency: fraction of transmission time that carried a
    // packet which ultimately succeeded. 0 (never NaN) when there are no
    // attempts or every attempt has zero duration.
    double useful_airtime_fraction = 0.0;
  };

  // One closed carrier-sense freeze interval (backoff countdown paused).
  struct FreezeSpan {
    mac::NodeId node = -1;
    sim::TimeNs begin = 0;
    sim::TimeNs end = 0;
  };

  // Subscribes Record to `mac`'s events; call before the run. The tracer
  // must outlive the run.
  void Attach(mac::CollectionMac& mac);

  // Folds one MAC event into the spans — what the attached observer calls.
  // Public so synthetic traces can be summarized without driving a
  // simulation.
  void Record(const mac::MacEvent& event);

  // Stable per-packet correlation id: (snapshot << 32) | origin.
  [[nodiscard]] static std::uint64_t PacketId(mac::NodeId origin,
                                              std::int32_t snapshot) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(snapshot)) << 32) |
           static_cast<std::uint32_t>(origin);
  }

  [[nodiscard]] const std::map<std::uint64_t, PacketSpan>& packets() const {
    return packets_;
  }
  [[nodiscard]] const std::vector<Attempt>& attempts() const { return attempts_; }
  [[nodiscard]] const std::vector<FreezeSpan>& freezes() const { return freezes_; }

  // Order-sensitive FNV-1a digest over every recorded span. Simulation-time
  // only — equal digests certify identical trace streams.
  [[nodiscard]] std::uint64_t Digest() const;

  // Chrome trace-event rendering: an async b/e span per packet (pid 1, id =
  // PacketId), an "X" slice per attempt and per freeze on the transmitter's
  // tid, an instant per relay enqueue. ts is sim-time microseconds.
  [[nodiscard]] std::vector<ChromeTraceEvent> ToChromeEvents() const;
  void WriteChromeTrace(std::ostream& out) const;

  // One row per transmission attempt:
  // start_ms,end_ms,transmitter,receiver,outcome,origin,snapshot,hops,min_sir
  void WriteAttemptCsv(std::ostream& out) const;
  [[nodiscard]] AttemptSummary SummarizeAttempts() const;

 private:
  std::map<std::uint64_t, PacketSpan> packets_;
  std::vector<Attempt> attempts_;
  std::vector<FreezeSpan> freezes_;
  // Per-node open freeze interval start (-1 = not frozen); grown lazily.
  std::vector<sim::TimeNs> freeze_begin_;
};

}  // namespace crn::obs

#endif  // CRN_OBS_SPAN_TRACER_H_
