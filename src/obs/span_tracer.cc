#include "obs/span_tracer.h"

#include <cmath>
#include <string>

#include "sim/audit.h"

namespace crn::obs {
namespace {

double ToMicros(sim::TimeNs t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

void PacketSpanTracer::Attach(mac::CollectionMac& mac) {
  freeze_begin_.assign(static_cast<std::size_t>(mac.node_count()), -1);
  mac.AddObserver([this](const mac::MacEvent& event) { Record(event); });
}

void PacketSpanTracer::Record(const mac::MacEvent& event) {
  using Kind = mac::MacEvent::Kind;
  switch (event.kind) {
    case Kind::kPacketCreated: {
      PacketSpan& span =
          packets_[PacketId(event.packet.origin, event.packet.snapshot)];
      span.origin = event.packet.origin;
      span.snapshot = event.packet.snapshot;
      span.created = event.time;
      break;
    }
    case Kind::kPacketEnqueued: {
      PacketSpan& span =
          packets_[PacketId(event.packet.origin, event.packet.snapshot)];
      span.enqueues.push_back(Hop{event.node, event.time, event.value});
      break;
    }
    case Kind::kPacketDelivered: {
      PacketSpan& span =
          packets_[PacketId(event.packet.origin, event.packet.snapshot)];
      span.delivered = event.time;
      span.hops = event.packet.hops;
      break;
    }
    case Kind::kPacketDropped: {
      PacketSpan& span =
          packets_[PacketId(event.packet.origin, event.packet.snapshot)];
      span.dropped = event.time;
      break;
    }
    case Kind::kContentionStarted:
    case Kind::kFrozen: {
      // A fresh contention starts frozen (BeginContention's busy snapshot);
      // a same-instant resume closes it as a zero-length interval, dropped
      // below.
      const auto node = static_cast<std::size_t>(event.node);
      if (node < freeze_begin_.size()) freeze_begin_[node] = event.time;
      break;
    }
    case Kind::kResumed: {
      const auto node = static_cast<std::size_t>(event.node);
      if (node < freeze_begin_.size() && freeze_begin_[node] >= 0) {
        if (event.time > freeze_begin_[node]) {
          freezes_.push_back(FreezeSpan{event.node, freeze_begin_[node], event.time});
        }
        freeze_begin_[node] = -1;
      }
      break;
    }
    case Kind::kTxEnd:
      attempts_.push_back(Attempt{event.node, event.peer, event.start, event.end,
                                  event.outcome, event.packet.origin,
                                  event.packet.snapshot, event.packet.hops,
                                  event.min_sir});
      break;
    case Kind::kDeferred:
    case Kind::kSlotBoundary:
    case Kind::kTxStart:
      break;
  }
}

std::uint64_t PacketSpanTracer::Digest() const {
  sim::TraceDigest digest;
  for (const auto& [id, span] : packets_) {
    digest.Mix(id);
    digest.MixSigned(span.created);
    digest.MixSigned(span.delivered);
    digest.MixSigned(span.dropped);
    digest.MixSigned(span.hops);
    for (const Hop& hop : span.enqueues) {
      digest.MixSigned(hop.node);
      digest.MixSigned(hop.at);
      digest.MixSigned(hop.queue_depth);
    }
  }
  for (const Attempt& attempt : attempts_) {
    digest.MixSigned(attempt.transmitter);
    digest.MixSigned(attempt.receiver);
    digest.MixSigned(attempt.start);
    digest.MixSigned(attempt.end);
    digest.Mix(static_cast<std::uint64_t>(attempt.outcome));
    digest.MixSigned(attempt.packet_origin);
    digest.MixSigned(attempt.packet_snapshot);
  }
  for (const FreezeSpan& freeze : freezes_) {
    digest.MixSigned(freeze.node);
    digest.MixSigned(freeze.begin);
    digest.MixSigned(freeze.end);
  }
  return digest.value();
}

std::vector<ChromeTraceEvent> PacketSpanTracer::ToChromeEvents() const {
  std::vector<ChromeTraceEvent> events;
  events.reserve(2 * packets_.size() + attempts_.size() + freezes_.size());
  for (const auto& [id, span] : packets_) {
    ChromeTraceEvent begin;
    begin.name = "packet";
    begin.category = "packet";
    begin.phase = ChromeTraceEvent::Phase::kAsyncBegin;
    begin.ts_us = ToMicros(span.created);
    begin.tid = span.origin;
    begin.id = id;
    begin.args.emplace_back("origin", std::to_string(span.origin));
    begin.args.emplace_back("snapshot", std::to_string(span.snapshot));
    events.push_back(std::move(begin));
    for (const Hop& hop : span.enqueues) {
      ChromeTraceEvent enq;
      enq.name = "enqueue";
      enq.category = "packet";
      enq.phase = ChromeTraceEvent::Phase::kInstant;
      enq.ts_us = ToMicros(hop.at);
      enq.tid = hop.node;
      enq.args.emplace_back("origin", std::to_string(span.origin));
      enq.args.emplace_back("queue_depth", std::to_string(hop.queue_depth));
      events.push_back(std::move(enq));
    }
    if (span.terminal()) {
      ChromeTraceEvent end;
      end.name = "packet";
      end.category = "packet";
      end.phase = ChromeTraceEvent::Phase::kAsyncEnd;
      end.ts_us = ToMicros(span.delivered >= 0 ? span.delivered : span.dropped);
      end.tid = span.origin;
      end.id = id;
      end.args.emplace_back("outcome",
                            span.delivered >= 0 ? "delivered" : "dropped");
      if (span.delivered >= 0) {
        end.args.emplace_back("hops", std::to_string(span.hops));
        end.args.emplace_back("delay_ns", std::to_string(span.delivery_delay()));
      }
      events.push_back(std::move(end));
    }
  }
  for (const Attempt& attempt : attempts_) {
    ChromeTraceEvent tx;
    tx.name = std::string("tx:") + mac::ToString(attempt.outcome);
    tx.category = "tx";
    tx.phase = ChromeTraceEvent::Phase::kComplete;
    tx.ts_us = ToMicros(attempt.start);
    tx.dur_us = ToMicros(attempt.end - attempt.start);
    tx.tid = attempt.transmitter;
    tx.args.emplace_back("receiver", std::to_string(attempt.receiver));
    tx.args.emplace_back("origin", std::to_string(attempt.packet_origin));
    tx.args.emplace_back("snapshot", std::to_string(attempt.packet_snapshot));
    events.push_back(std::move(tx));
  }
  for (const FreezeSpan& freeze : freezes_) {
    ChromeTraceEvent span;
    span.name = "freeze";
    span.category = "mac";
    span.phase = ChromeTraceEvent::Phase::kComplete;
    span.ts_us = ToMicros(freeze.begin);
    span.dur_us = ToMicros(freeze.end - freeze.begin);
    span.tid = freeze.node;
    events.push_back(std::move(span));
  }
  return events;
}

void PacketSpanTracer::WriteChromeTrace(std::ostream& out) const {
  obs::WriteChromeTrace(ToChromeEvents(), out);
}

void PacketSpanTracer::WriteAttemptCsv(std::ostream& out) const {
  out << "start_ms,end_ms,transmitter,receiver,outcome,origin,snapshot,hops,min_sir\n";
  for (const Attempt& attempt : attempts_) {
    out << sim::ToMilliseconds(attempt.start) << ","
        << sim::ToMilliseconds(attempt.end) << "," << attempt.transmitter << ","
        << attempt.receiver << "," << mac::ToString(attempt.outcome) << ","
        << attempt.packet_origin << "," << attempt.packet_snapshot << ","
        << attempt.packet_hops << ",";
    if (std::isinf(attempt.min_sir)) {
      out << "inf";
    } else {
      out << attempt.min_sir;
    }
    out << "\n";
  }
}

PacketSpanTracer::AttemptSummary PacketSpanTracer::SummarizeAttempts() const {
  AttemptSummary summary;
  summary.attempts = static_cast<std::int64_t>(attempts_.size());
  sim::TimeNs airtime = 0;
  sim::TimeNs useful = 0;
  bool first = true;
  for (const Attempt& attempt : attempts_) {
    ++summary.per_outcome[static_cast<std::int32_t>(attempt.outcome)];
    const sim::TimeNs duration = attempt.end - attempt.start;
    airtime += duration;
    if (attempt.outcome == mac::TxOutcome::kSuccess) useful += duration;
    if (first || attempt.start < summary.first_start) {
      summary.first_start = attempt.start;
    }
    if (attempt.end > summary.last_end) summary.last_end = attempt.end;
    first = false;
  }
  // airtime can legitimately be zero with attempts recorded (every attempt
  // sharing one instant); the guard keeps the fraction 0 instead of NaN.
  if (airtime > 0) {
    summary.useful_airtime_fraction =
        static_cast<double>(useful) / static_cast<double>(airtime);
  }
  if (summary.attempts > 0) {
    for (std::int32_t outcome = 0; outcome < mac::kTxOutcomeCount; ++outcome) {
      summary.per_outcome_fraction[outcome] =
          static_cast<double>(summary.per_outcome[outcome]) /
          static_cast<double>(summary.attempts);
    }
  }
  return summary;
}

}  // namespace crn::obs
