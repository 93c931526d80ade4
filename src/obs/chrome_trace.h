// Chrome trace-event JSON emission (the "JSON Array/Object Format" that
// chrome://tracing and Perfetto both load). The harness profiler and
// crn_trace reduce their records to ChromeTraceEvent values and hand them to
// WriteChromeTrace(), which sorts by timestamp and serializes; the packet
// span tracer renders its records straight through ChromeTraceWriter, the
// same formatter, without building events first.
//
// Timestamps are microseconds (the format's unit). Sim-time producers
// convert TimeNs exactly (ns / 1000.0 — every TimeNs fits a double);
// wall-clock producers convert seconds since their epoch.
#ifndef CRN_OBS_CHROME_TRACE_H_
#define CRN_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace crn::obs {

struct ChromeTraceEvent {
  // Subset of phases the repo emits: complete spans, async (flow) spans,
  // instants, and thread-name metadata.
  enum class Phase : std::uint8_t {
    kComplete,    // "X": ts + dur
    kAsyncBegin,  // "b": needs id
    kAsyncEnd,    // "e": needs id
    kInstant,     // "i"
    kMetadata,    // "M": thread_name (args: {"name": <first arg value>})
  };

  std::string name;
  std::string category;
  Phase phase = Phase::kInstant;
  double ts_us = 0.0;
  double dur_us = 0.0;  // kComplete only
  std::int64_t pid = 1;
  std::int64_t tid = 0;
  std::uint64_t id = 0;  // async span correlation id
  // Rendered verbatim as string args (insertion order).
  std::vector<std::pair<std::string, std::string>> args;
};

// Writes the object form: {"traceEvents": [...], "displayTimeUnit": "ms"}.
// Events are emitted in (ts, insertion order) — monotone timestamps, which
// the CI trace validator asserts. Metadata is normalized before the
// timeline: exactly one event per (pid, tid, name) — the first emission
// wins — ordered by (pid, tid, name) with args sorted by key, so merged
// event streams render byte-identically regardless of producer
// concatenation order.
void WriteChromeTrace(const std::vector<ChromeTraceEvent>& events,
                      std::ostream& out);

// Formats the object form event by event into a bounded buffer that it
// flushes to `out`: the document head on construction, then each event as
// BeginEvent, its args in order, EndEvent, and the tail on Finish. Events
// come out in call order; the caller sorts.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  // An empty category renders as "crn". dur_us is written for kComplete
  // only, id for the async phases only.
  void BeginEvent(std::string_view name, std::string_view category,
                  ChromeTraceEvent::Phase phase, double ts_us, double dur_us,
                  std::int64_t pid, std::int64_t tid, std::uint64_t id);
  // One arg of the open event; every value renders as a JSON string.
  void Arg(std::string_view key, std::string_view value);
  void Arg(std::string_view key, std::int64_t value);
  void EndEvent();
  // Writes the tail and flushes. Call once, last.
  void Finish();

 private:
  void Reserve(std::size_t bytes);
  void Flush();
  void Put(std::string_view text);
  void PutEscaped(std::string_view text);
  void PutSigned(std::int64_t value);
  void PutUnsigned(std::uint64_t value);
  void PutTs(double us);

  std::ostream& out_;
  std::vector<char> buffer_;
  std::size_t used_ = 0;
  std::size_t events_ = 0;
  std::size_t args_ = 0;
};

}  // namespace crn::obs

#endif  // CRN_OBS_CHROME_TRACE_H_
