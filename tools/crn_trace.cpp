// crn_trace — flight-recorder dump inspector (sim/flight_recorder.h).
//
// Decodes the binary dump written by `addc_sim --flight-recorder-out` (or
// any FlightRecorder::WriteDump stream) and turns it into something a human
// or another tool can consume:
//
//   crn_trace DUMP                        decoded listing (newest records)
//   crn_trace DUMP --stats                per-kind action counters
//   crn_trace DUMP --chain=SEQ            causal chain ending at event #SEQ
//   crn_trace DUMP --chrome-out=FILE      Chrome trace-event JSON (Perfetto)
//   crn_trace DUMP --collapsed-out=FILE   flamegraph collapsed stacks
//
// Listing / export filters:
//   --node=ID     only records owned by node ID
//   --kind=NAME   only records of the named event kind
//   --from-ms=F   only records at sim-time >= F milliseconds
//   --to-ms=F     only records at sim-time <= F milliseconds
//   --limit=N     cap listing rows, newest kept (default 64; 0 = unlimited)
//
// The causal chain walks parent_seq links from #SEQ back to its root (an
// arm performed outside any event callback, parent 0); links point at
// sequence numbers, so the walk survives older records rotating out of the
// ring — it stops with a note when a parent predates the retained window.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "obs/chrome_trace.h"
#include "sim/flight_recorder.h"
#include "sim/time.h"

namespace {

using namespace crn;

constexpr const char* kHelp = R"(crn_trace — scheduler flight-recorder dump inspector

Usage: crn_trace DUMP [options]

Modes (default: decoded listing of the retained records):
  --stats                 per-kind arm/reschedule/disarm/fire counters
  --chain=SEQ             reconstruct the causal chain ending at event #SEQ
                          (SEQ >= 0)
  --chrome-out=FILE       export retained records as Chrome trace-event JSON
                          (arm->fire / arm->disarm spans per node row; load in
                          Perfetto or chrome://tracing)
  --collapsed-out=FILE    export causal stacks of fire records in flamegraph
                          collapsed form ("root;...;kind count" per line)

Filters (listing and exports):
  --node=ID               only records owned by node ID (ID >= 0)
  --kind=NAME             only records of the named event kind
  --from-ms=F --to-ms=F   sim-time window in milliseconds; F finite, >= 0
                          and below 2^63 ns (9223372036854.775 ms)
  --limit=N               listing rows / chain links to print, newest kept
                          (default 64; 0 = unlimited; N >= 0)
A value outside its range exits 2 with an `error:` line.
)";

struct Filter {
  std::int64_t node = -1;        // -1 = any
  std::int32_t kind = -1;        // -1 = any
  sim::TimeNs from_ns = 0;
  sim::TimeNs to_ns = std::numeric_limits<sim::TimeNs>::max();

  [[nodiscard]] bool Matches(const sim::FlightRecord& r) const {
    if (node >= 0 && r.owner != node) return false;
    if (kind >= 0 && r.kind != kind) return false;
    return r.time >= from_ns && r.time <= to_ns;
  }
};

// Index of the defining record per seq: the fire record when present (it
// carries the same parent as the arm), otherwise the arm/reschedule record.
// Disarm records reuse the cancelled entry's seq and never define it.
std::map<sim::EventId, std::size_t> IndexBySeq(
    const std::vector<sim::FlightRecord>& records) {
  std::map<sim::EventId, std::size_t> index;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sim::FlightRecord& r = records[i];
    if (r.action == sim::SchedAction::kDisarm) continue;
    auto [it, inserted] = index.emplace(r.seq, i);
    if (!inserted && r.action == sim::SchedAction::kFire) it->second = i;
  }
  return index;
}

std::string KindName(const sim::FlightRecorder::Dump& dump, std::uint16_t id) {
  if (id < dump.kind_names.size() && !dump.kind_names[id].empty()) {
    return dump.kind_names[id];
  }
  return "kind#" + std::to_string(id);
}

int PrintChain(const sim::FlightRecorder::Dump& dump, std::uint64_t target,
               std::int64_t limit) {
  const std::map<sim::EventId, std::size_t> by_seq = IndexBySeq(dump.records);
  // Walk leaf -> root, then print root-first so the chain reads forward in
  // causal (and sim-time) order. Self-perpetuating timers (a slot boundary
  // arming the next) make chains as long as the run, so the print keeps the
  // `limit` leaf-most links and elides the older middle.
  std::vector<std::size_t> chain;
  bool truncated = false;
  sim::EventId seq = target;
  while (seq != 0) {
    const auto it = by_seq.find(seq);
    if (it == by_seq.end()) {
      truncated = true;  // parent rotated out of the ring (or bad seq)
      break;
    }
    chain.push_back(it->second);
    seq = dump.records[it->second].parent_seq;
  }
  if (chain.empty()) {
    std::cerr << "crn_trace: event #" << target
              << " is not in the retained window (" << dump.records.size()
              << " records kept of " << dump.total_recorded << ")\n";
    return 1;
  }
  std::reverse(chain.begin(), chain.end());
  std::cout << "causal chain for #" << target << " (" << chain.size()
            << " links";
  if (truncated) {
    std::cout << ", root truncated — #" << seq
              << " rotated out of the ring";
  }
  std::cout << "):\n";
  std::size_t first = 0;
  if (limit > 0 && chain.size() > static_cast<std::size_t>(limit)) {
    first = chain.size() - static_cast<std::size_t>(limit);
    std::cout << "  ... " << first << " older links elided (--limit)\n";
  }
  constexpr std::size_t kMaxIndent = 16;
  for (std::size_t i = first; i < chain.size(); ++i) {
    std::cout << std::string(2 * std::min(i - first, kMaxIndent), ' ')
              << sim::FlightRecorder::FormatRecord(dump.records[chain[i]],
                                                   dump.kind_names)
              << "\n";
  }
  return 0;
}

void PrintStats(const sim::FlightRecorder::Dump& dump) {
  std::cout << "flight dump: depth " << dump.depth << ", retained "
            << dump.records.size() << " of " << dump.total_recorded
            << " recorded actions, " << dump.kind_names.size()
            << " event kinds\n";
  std::cout << "kind                        arms  resched   disarms     fires\n";
  for (std::size_t k = 0; k < dump.counters.size(); ++k) {
    const sim::KindCounters& c = dump.counters[k];
    if (c.arms == 0 && c.reschedules == 0 && c.disarms == 0 && c.fires == 0) {
      continue;
    }
    std::string name = KindName(dump, static_cast<std::uint16_t>(k));
    name.resize(std::max<std::size_t>(name.size(), 22), ' ');
    auto cell = [](std::int64_t v, std::size_t width) {
      std::string s = std::to_string(v);
      return std::string(width > s.size() ? width - s.size() : 0, ' ') + s;
    };
    std::cout << name << cell(c.arms, 10) << cell(c.reschedules, 9)
              << cell(c.disarms, 10) << cell(c.fires, 10) << "\n";
  }
}

// Chrome export: one row per (pid=3, tid=owner). Every armed lifetime that
// resolves inside the window becomes a complete span (arm/reschedule ->
// fire/disarm); fires whose arm rotated out become instants, so nothing
// recorded is silently dropped.
int WriteChrome(const sim::FlightRecorder::Dump& dump, const Filter& filter,
                const std::string& path) {
  std::vector<obs::ChromeTraceEvent> events;
  std::map<sim::EventId, std::size_t> armed_at;  // seq -> record index
  std::int64_t max_tid = 0;
  auto emit = [&](const sim::FlightRecord& end, const sim::FlightRecord* arm) {
    if (!filter.Matches(end)) return;
    obs::ChromeTraceEvent event;
    event.name = KindName(dump, end.kind);
    event.category =
        end.action == sim::SchedAction::kFire ? "sched.fire" : "sched.disarm";
    event.pid = 3;  // distinct from sim-time spans (1) and profiler (2)
    event.tid = end.owner;
    max_tid = std::max(max_tid, event.tid);
    event.args.emplace_back("seq", std::to_string(end.seq));
    event.args.emplace_back("parent", std::to_string(end.parent_seq));
    if (arm != nullptr) {
      event.phase = obs::ChromeTraceEvent::Phase::kComplete;
      event.ts_us = static_cast<double>(arm->time) / 1000.0;
      event.dur_us = static_cast<double>(end.time - arm->time) / 1000.0;
    } else {
      event.phase = obs::ChromeTraceEvent::Phase::kInstant;
      event.ts_us = static_cast<double>(end.time) / 1000.0;
    }
    events.push_back(std::move(event));
  };
  for (const sim::FlightRecord& r : dump.records) {
    switch (r.action) {
      case sim::SchedAction::kArm:
      case sim::SchedAction::kReschedule: {
        const std::size_t index =
            static_cast<std::size_t>(&r - dump.records.data());
        armed_at[r.seq] = index;
        break;
      }
      case sim::SchedAction::kDisarm:
      case sim::SchedAction::kFire: {
        const auto it = armed_at.find(r.seq);
        emit(r, it == armed_at.end() ? nullptr : &dump.records[it->second]);
        if (it != armed_at.end()) armed_at.erase(it);
        break;
      }
    }
  }
  for (std::int64_t tid = 0; tid <= max_tid; ++tid) {
    obs::ChromeTraceEvent meta;
    meta.name = "thread_name";
    meta.category = "__metadata";
    meta.phase = obs::ChromeTraceEvent::Phase::kMetadata;
    meta.pid = 3;
    meta.tid = tid;
    meta.args.emplace_back("name", "node-" + std::to_string(tid));
    events.push_back(std::move(meta));
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return 2;
  }
  obs::WriteChromeTrace(events, out);
  std::cout << "chrome trace: " << events.size() << " events -> " << path
            << "\n";
  return 0;
}

// Flamegraph collapsed export: each fire record contributes one sample whose
// stack is its causal chain (root kind; ...; fired kind). Truncated roots
// get a "[truncated]" frame so partial chains stay distinguishable, and
// chains deeper than kMaxFrames (self-perpetuating timers run chain length
// into the tens of thousands) keep the leaf-most frames under a "[...]"
// root.
int WriteCollapsed(const sim::FlightRecorder::Dump& dump, const Filter& filter,
                   const std::string& path) {
  constexpr std::size_t kMaxFrames = 24;
  const std::map<sim::EventId, std::size_t> by_seq = IndexBySeq(dump.records);
  std::map<std::string, std::int64_t> samples;
  for (const sim::FlightRecord& r : dump.records) {
    if (r.action != sim::SchedAction::kFire || !filter.Matches(r)) continue;
    std::vector<std::string> frames;  // leaf first
    sim::EventId seq = r.seq;
    while (seq != 0) {
      if (frames.size() == kMaxFrames) {
        frames.push_back("[...]");
        break;
      }
      const auto it = by_seq.find(seq);
      if (it == by_seq.end()) {
        frames.push_back("[truncated]");
        break;
      }
      frames.push_back(KindName(dump, dump.records[it->second].kind));
      seq = dump.records[it->second].parent_seq;
    }
    std::string stack;
    for (auto frame = frames.rbegin(); frame != frames.rend(); ++frame) {
      if (!stack.empty()) stack += ';';
      stack += *frame;
    }
    ++samples[stack];
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return 2;
  }
  for (const auto& [stack, count] : samples) {
    out << stack << " " << count << "\n";
  }
  std::cout << "collapsed stacks: " << samples.size() << " unique stacks -> "
            << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::cout << kHelp;
    return 0;
  }
  const bool stats = flags.GetBool("stats", false);
  const harness::IntRange non_negative{.min = 0, .max = harness::kAnyInt64.max};
  const std::int64_t chain = flags.GetInt("chain", 0, non_negative);
  const std::string chrome_out = flags.GetString("chrome-out", "");
  const std::string collapsed_out = flags.GetString("collapsed-out", "");
  Filter filter;
  filter.node = flags.GetInt("node", filter.node, non_negative);
  const std::string kind_name = flags.GetString("kind", "");
  const harness::RealRange ms{.min = 0.0, .max = sim::kMillisecondsPastClock,
                              .max_open = true};
  filter.from_ns = sim::FromMilliseconds(flags.GetDouble("from-ms", 0.0, ms));
  if (flags.Has("to-ms")) {
    filter.to_ns = sim::FromMilliseconds(flags.GetDouble("to-ms", 0.0, ms));
  }
  const std::int64_t limit = flags.GetInt("limit", 64, non_negative);

  const bool one_dump = flags.positionals().size() == 1;
  if (!one_dump) std::cerr << "error: expected exactly one DUMP file argument\n";
  if (flags.ReportErrors(std::cerr) || !one_dump) {
    std::cerr << "run with --help for usage\n";
    return 2;
  }

  const std::string dump_path = flags.positionals().front();
  std::ifstream in(dump_path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot open " << dump_path << "\n";
    return 2;
  }
  sim::FlightRecorder::Dump dump;
  std::string error;
  if (!sim::FlightRecorder::ReadDump(in, &dump, &error)) {
    std::cerr << "error: " << dump_path << ": " << error << "\n";
    return 1;
  }
  if (!kind_name.empty()) {
    const auto it = std::find(dump.kind_names.begin(), dump.kind_names.end(),
                              kind_name);
    if (it == dump.kind_names.end()) {
      std::cerr << "error: kind '" << kind_name
                << "' is not in the dump's registry (see --stats)\n";
      return 1;
    }
    filter.kind =
        static_cast<std::int32_t>(it - dump.kind_names.begin());
  }

  if (stats) {
    PrintStats(dump);
    return 0;
  }
  if (flags.Has("chain")) {
    return PrintChain(dump, static_cast<std::uint64_t>(chain), limit);
  }
  if (!chrome_out.empty() || !collapsed_out.empty()) {
    int status = 0;
    if (!chrome_out.empty()) {
      status = WriteChrome(dump, filter, chrome_out);
      if (status != 0) return status;
    }
    if (!collapsed_out.empty()) {
      status = WriteCollapsed(dump, filter, collapsed_out);
    }
    return status;
  }

  // Default: decoded listing, oldest first, newest `limit` rows kept.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    if (filter.Matches(dump.records[i])) rows.push_back(i);
  }
  const std::size_t skipped =
      limit > 0 && rows.size() > static_cast<std::size_t>(limit)
          ? rows.size() - static_cast<std::size_t>(limit)
          : 0;
  std::cout << "flight dump " << dump_path << ": " << dump.records.size()
            << " retained of " << dump.total_recorded << " recorded, "
            << rows.size() << " match";
  if (skipped > 0) std::cout << " (showing newest " << limit << ")";
  std::cout << "\n";
  for (std::size_t i = skipped; i < rows.size(); ++i) {
    std::cout << sim::FlightRecorder::FormatRecord(dump.records[rows[i]],
                                                   dump.kind_names)
              << "\n";
  }
  return 0;
}
