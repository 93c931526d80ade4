#include "obs/span_tracer.h"

#include <algorithm>
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

void PacketSpanTracer::WriteChromeTrace(std::ostream& out) const {
  // One light key per event, numbered in emission order: each packet's
  // begin, enqueues and end (map order), then the attempts, then the
  // freezes. Sorting by (ts, number) is obs::WriteChromeTrace's stable sort
  // by ts over events emitted in that order, so the bytes are the same.
  enum class Kind : std::uint8_t { kBegin, kEnqueue, kEnd, kAttempt, kFreeze };
  struct Key {
    double ts_us;
    std::uint32_t seq;
    std::uint32_t record;  // packet ordinal, attempt or freeze index
    std::uint32_t hop;     // enqueue index within the packet
    Kind kind;
  };
  std::vector<const std::pair<const std::uint64_t, PacketSpan>*> packets;
  packets.reserve(packets_.size());
  std::vector<Key> keys;
  keys.reserve(2 * packets_.size() + attempts_.size() + freezes_.size());
  auto add = [&keys](sim::TimeNs at, std::size_t record, std::size_t hop, Kind kind) {
    keys.push_back(Key{ToMicros(at), static_cast<std::uint32_t>(keys.size()),
                       static_cast<std::uint32_t>(record),
                       static_cast<std::uint32_t>(hop), kind});
  };
  for (const auto& entry : packets_) {
    const std::size_t ordinal = packets.size();
    packets.push_back(&entry);
    const PacketSpan& span = entry.second;
    add(span.created, ordinal, 0, Kind::kBegin);
    for (std::size_t h = 0; h < span.enqueues.size(); ++h) {
      add(span.enqueues[h].at, ordinal, h, Kind::kEnqueue);
    }
    if (span.terminal()) {
      add(span.delivered >= 0 ? span.delivered : span.dropped, ordinal, 0, Kind::kEnd);
    }
  }
  for (std::size_t i = 0; i < attempts_.size(); ++i) {
    add(attempts_[i].start, i, 0, Kind::kAttempt);
  }
  for (std::size_t i = 0; i < freezes_.size(); ++i) {
    add(freezes_[i].begin, i, 0, Kind::kFreeze);
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.ts_us < b.ts_us || (a.ts_us == b.ts_us && a.seq < b.seq);
  });

  std::string tx_names[mac::kTxOutcomeCount];
  for (std::int32_t outcome = 0; outcome < mac::kTxOutcomeCount; ++outcome) {
    tx_names[outcome] =
        std::string("tx:") + mac::ToString(static_cast<mac::TxOutcome>(outcome));
  }
  using Phase = ChromeTraceEvent::Phase;
  ChromeTraceWriter writer(out);
  for (const Key& key : keys) {
    switch (key.kind) {
      case Kind::kBegin: {
        const auto& [id, span] = *packets[key.record];
        writer.BeginEvent("packet", "packet", Phase::kAsyncBegin, key.ts_us, 0.0, 1,
                          span.origin, id);
        writer.Arg("origin", std::int64_t{span.origin});
        writer.Arg("snapshot", std::int64_t{span.snapshot});
        break;
      }
      case Kind::kEnqueue: {
        const PacketSpan& span = packets[key.record]->second;
        const Hop& hop = span.enqueues[key.hop];
        writer.BeginEvent("enqueue", "packet", Phase::kInstant, key.ts_us, 0.0, 1,
                          hop.node, 0);
        writer.Arg("origin", std::int64_t{span.origin});
        writer.Arg("queue_depth", hop.queue_depth);
        break;
      }
      case Kind::kEnd: {
        const auto& [id, span] = *packets[key.record];
        writer.BeginEvent("packet", "packet", Phase::kAsyncEnd, key.ts_us, 0.0, 1,
                          span.origin, id);
        writer.Arg("outcome", span.delivered >= 0 ? "delivered" : "dropped");
        if (span.delivered >= 0) {
          writer.Arg("hops", std::int64_t{span.hops});
          writer.Arg("delay_ns", span.delivery_delay());
        }
        break;
      }
      case Kind::kAttempt: {
        const Attempt& attempt = attempts_[key.record];
        writer.BeginEvent(tx_names[static_cast<std::int32_t>(attempt.outcome)], "tx",
                          Phase::kComplete, key.ts_us,
                          ToMicros(attempt.end - attempt.start), 1,
                          attempt.transmitter, 0);
        writer.Arg("receiver", std::int64_t{attempt.receiver});
        writer.Arg("origin", std::int64_t{attempt.packet_origin});
        writer.Arg("snapshot", std::int64_t{attempt.packet_snapshot});
        break;
      }
      case Kind::kFreeze: {
        const FreezeSpan& freeze = freezes_[key.record];
        writer.BeginEvent("freeze", "mac", Phase::kComplete, key.ts_us,
                          ToMicros(freeze.end - freeze.begin), 1, freeze.node, 0);
        break;
      }
    }
    writer.EndEvent();
  }
  writer.Finish();
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
