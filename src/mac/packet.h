// Packet, transmission-outcome and MAC-event types shared by the MAC and
// the sinks that observe it.
#ifndef CRN_MAC_PACKET_H_
#define CRN_MAC_PACKET_H_

#include <cstdint>

#include "graph/unit_disk_graph.h"
#include "sim/time.h"

namespace crn::mac {

using NodeId = graph::NodeId;

// A data-collection payload. Packets are never aggregated (§III: "without
// any data aggregation"), so identity is just the producing SU plus
// bookkeeping for metrics.
struct Packet {
  NodeId origin = graph::kInvalidNode;
  sim::TimeNs created = 0;
  std::int32_t hops = 0;
  std::int32_t snapshot = 0;  // which snapshot produced it (continuous mode)
};

// Terminal outcome of one SU transmission attempt.
enum class TxOutcome : std::uint8_t {
  kSuccess = 0,
  kAbortedPuReturn,  // spectrum handoff: a PU became active inside the PCR
  kSirFailure,       // physical-model SIR dropped below η_s during reception
  kReceiverBusy,     // receiver was transmitting (half-duplex violation)
  kCaptureLost,      // RS mode: receiver switched to a stronger signal
};
inline constexpr std::int32_t kTxOutcomeCount = 5;

const char* ToString(TxOutcome outcome);

// The one record CollectionMac hands its observers (AddObserver): every
// instant of a packet's life and of the MAC around it — created → enqueued
// per hop → contention (backoff, freeze, resume, defer) → on the air →
// attempt ended → delivered or dropped — plus the PU slot boundaries.
// Sinks (the invariant auditor, obs::MacMetricsCollector,
// obs::PacketSpanTracer, tests) switch on `kind` and read the fields it
// names; the others keep their defaults.
struct MacEvent {
  enum class Kind : std::uint8_t {
    kPacketCreated,      // seeded at its origin; value = queue depth after
    kPacketEnqueued,     // arrived at a relay; value = queue depth after
    kPacketDelivered,    // reached the base station; value = hop count
    kPacketDropped,      // lost with a failed node; value = queue depth left
    kContentionStarted,  // backoff drawn (Alg. 1 line 3, Theorem 1's
                         // reference instant); value = t_i in ns
    kFrozen,             // countdown paused (busy spectrum); value = remaining ns
    kResumed,            // countdown resumed (free spectrum); value = remaining ns
    kDeferred,           // slot-aware hold until the boundary; value = hold ns
    kSlotBoundary,       // PU re-sample; node = -1, value = active PU count
    kTxStart,            // on the air, outcome unknown; start/end = airtime
    kTxEnd,              // attempt terminated; outcome and min_sir are set
  };

  Kind kind = Kind::kSlotBoundary;
  NodeId node = graph::kInvalidNode;  // the transmitter for the tx kinds
  NodeId peer = graph::kInvalidNode;  // the receiver (tx kinds only)
  sim::TimeNs time = 0;
  sim::TimeNs start = 0;  // tx kinds: airtime start
  sim::TimeNs end = 0;    // kTxStart: scheduled end; kTxEnd: actual end
  // The four packet kinds, kContentionStarted and kTxEnd (queue head).
  Packet packet;
  std::int64_t value = 0;  // kind-specific, see above
  TxOutcome outcome = TxOutcome::kSuccess;  // kTxEnd only
  double min_sir = 0.0;  // kTxEnd: reception SIR floor, +inf when unopposed
};

}  // namespace crn::mac

#endif  // CRN_MAC_PACKET_H_
