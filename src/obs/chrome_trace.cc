#include "obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <map>
#include <tuple>

namespace crn::obs {
namespace {

const char* PhaseString(ChromeTraceEvent::Phase phase) {
  switch (phase) {
    case ChromeTraceEvent::Phase::kComplete: return "X";
    case ChromeTraceEvent::Phase::kAsyncBegin: return "b";
    case ChromeTraceEvent::Phase::kAsyncEnd: return "e";
    case ChromeTraceEvent::Phase::kInstant: return "i";
    case ChromeTraceEvent::Phase::kMetadata: return "M";
  }
  return "i";
}

void WriteEvent(const ChromeTraceEvent& event, ChromeTraceWriter& writer) {
  writer.BeginEvent(event.name, event.category, event.phase, event.ts_us,
                    event.dur_us, event.pid, event.tid, event.id);
  for (const auto& [key, value] : event.args) writer.Arg(key, value);
  writer.EndEvent();
}

constexpr std::size_t kBufferBytes = std::size_t{64} << 10;

}  // namespace

void WriteChromeTrace(const std::vector<ChromeTraceEvent>& events,
                      std::ostream& out) {
  // Metadata is normalized, not just sorted first: merged streams (span
  // tracer + profiler + crn_trace rows) may each announce the same thread,
  // so exactly one metadata event survives per (pid, tid, name) — first
  // emission wins — emitted in (pid, tid, name) order with args sorted by
  // key. The rendered bytes are therefore identical however the producers'
  // event vectors were concatenated.
  std::map<std::tuple<std::int64_t, std::int64_t, std::string>,
           const ChromeTraceEvent*>
      metadata;
  std::vector<const ChromeTraceEvent*> order;
  order.reserve(events.size());
  for (const ChromeTraceEvent& event : events) {
    if (event.phase == ChromeTraceEvent::Phase::kMetadata) {
      metadata.emplace(std::make_tuple(event.pid, event.tid, event.name),
                       &event);
    } else {
      order.push_back(&event);
    }
  }
  // Stable sort keeps the producer's deterministic emit order among equal
  // timestamps.
  std::stable_sort(order.begin(), order.end(),
                   [](const ChromeTraceEvent* a, const ChromeTraceEvent* b) {
                     return a->ts_us < b->ts_us;
                   });
  ChromeTraceWriter writer(out);
  for (const auto& [key, event] : metadata) {
    ChromeTraceEvent normalized = *event;
    std::sort(normalized.args.begin(), normalized.args.end());
    WriteEvent(normalized, writer);
  }
  for (const ChromeTraceEvent* event : order) WriteEvent(*event, writer);
  writer.Finish();
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out)
    : out_(out), buffer_(kBufferBytes) {
  Put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

void ChromeTraceWriter::BeginEvent(std::string_view name, std::string_view category,
                                   ChromeTraceEvent::Phase phase, double ts_us,
                                   double dur_us, std::int64_t pid, std::int64_t tid,
                                   std::uint64_t id) {
  Put(events_++ > 0 ? ",\n{\"name\":" : "\n{\"name\":");
  PutEscaped(name);
  Put(",\"cat\":");
  PutEscaped(category.empty() ? "crn" : category);
  Put(",\"ph\":\"");
  Put(PhaseString(phase));
  Put("\",\"ts\":");
  PutTs(ts_us);
  if (phase == ChromeTraceEvent::Phase::kComplete) {
    Put(",\"dur\":");
    PutTs(dur_us);
  }
  Put(",\"pid\":");
  PutSigned(pid);
  Put(",\"tid\":");
  PutSigned(tid);
  if (phase == ChromeTraceEvent::Phase::kAsyncBegin ||
      phase == ChromeTraceEvent::Phase::kAsyncEnd) {
    Put(",\"id\":");
    PutUnsigned(id);
  }
  if (phase == ChromeTraceEvent::Phase::kInstant) Put(",\"s\":\"t\"");
  args_ = 0;
}

void ChromeTraceWriter::Arg(std::string_view key, std::string_view value) {
  Put(args_++ > 0 ? "," : ",\"args\":{");
  PutEscaped(key);
  Put(":");
  PutEscaped(value);
}

void ChromeTraceWriter::Arg(std::string_view key, std::int64_t value) {
  // Decimal digits and '-' need no escaping.
  Put(args_++ > 0 ? "," : ",\"args\":{");
  PutEscaped(key);
  Put(":\"");
  PutSigned(value);
  Put("\"");
}

void ChromeTraceWriter::EndEvent() { Put(args_ > 0 ? "}}" : "}"); }

void ChromeTraceWriter::Finish() {
  Put("\n]}\n");
  Flush();
}

void ChromeTraceWriter::Reserve(std::size_t bytes) {
  if (used_ + bytes > buffer_.size()) Flush();
}

void ChromeTraceWriter::Flush() {
  out_.write(buffer_.data(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

void ChromeTraceWriter::Put(std::string_view text) {
  if (text.size() > buffer_.size()) {
    Flush();
    out_.write(text.data(), static_cast<std::streamsize>(text.size()));
    return;
  }
  Reserve(text.size());
  std::memcpy(buffer_.data() + used_, text.data(), text.size());
  used_ += text.size();
}

void ChromeTraceWriter::PutEscaped(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  Put("\"");
  for (const char c : text) {
    Reserve(6);  // the longest escape, \u00XX
    char* at = buffer_.data() + used_;
    switch (c) {
      case '"': at[0] = '\\'; at[1] = '"'; used_ += 2; break;
      case '\\': at[0] = '\\'; at[1] = '\\'; used_ += 2; break;
      case '\n': at[0] = '\\'; at[1] = 'n'; used_ += 2; break;
      case '\t': at[0] = '\\'; at[1] = 't'; used_ += 2; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::memcpy(at, "\\u00", 4);
          at[4] = kHex[(c >> 4) & 0xF];
          at[5] = kHex[c & 0xF];
          used_ += 6;
        } else {
          at[0] = c;
          used_ += 1;
        }
    }
  }
  Put("\"");
}

void ChromeTraceWriter::PutSigned(std::int64_t value) {
  Reserve(20);
  char* at = buffer_.data() + used_;
  used_ = static_cast<std::size_t>(std::to_chars(at, at + 20, value).ptr - buffer_.data());
}

void ChromeTraceWriter::PutUnsigned(std::uint64_t value) {
  Reserve(20);
  char* at = buffer_.data() + used_;
  used_ = static_cast<std::size_t>(std::to_chars(at, at + 20, value).ptr - buffer_.data());
}

// Fixed-point microseconds with nanosecond resolution: ts values originate
// either from TimeNs (exact thirds of decimal digits) or wall-clock seconds;
// three fractional digits round-trip both without scientific notation.
void ChromeTraceWriter::PutTs(double us) {
  const bool negative = us < 0;
  if (negative) us = -us;
  const auto nanos = static_cast<unsigned long long>(us * 1000.0 + 0.5);
  if (negative) Put("-");
  PutUnsigned(nanos / 1000);
  const unsigned long long frac = nanos % 1000;
  const char digits[] = {'.', static_cast<char>('0' + frac / 100),
                         static_cast<char>('0' + (frac / 10) % 10),
                         static_cast<char>('0' + frac % 10)};
  Put(std::string_view(digits, sizeof digits));
}

}  // namespace crn::obs
