#include "faults/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <queue>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "sim/event_key.h"

namespace crn::faults {

namespace {

// Converts a millisecond count (possibly fractional) to TimeNs. Plans are
// authored in ms; all internal arithmetic is integral nanoseconds.
sim::TimeNs MsToNs(double ms) {
  return static_cast<sim::TimeNs>(ms * static_cast<double>(sim::kMillisecond));
}

// The fastest Poisson rate a plan may ask for: its mean gap is the 1 ns
// clock tick. A faster process rounds most gaps to 0 ns, and one fast
// enough rounds them all, so its arrival loop would never advance.
constexpr double kMaxRatePerS = 1e9;

// Whether a nanosecond count computed as a double converts to TimeNs.
bool FitsTimeNs(double ns) { return std::fabs(ns) < 0x1p63; }

// t + gap (gap >= 0), saturating at the end of the int64 clock, where no
// event ever fires. Sums that fit are exact.
sim::TimeNs AddSaturating(sim::TimeNs t, sim::TimeNs gap) {
  constexpr sim::TimeNs kEnd = std::numeric_limits<sim::TimeNs>::max();
  return t > kEnd - gap ? kEnd : t + gap;
}

// Exponential inter-arrival draw for a Poisson process at `rate_per_s`,
// in nanoseconds. Uses 1 - U so the log argument is never zero. A gap past
// the end of the clock (a tiny rate) saturates there.
sim::TimeNs ExponentialGapNs(Rng& rng, double rate_per_s) {
  const double seconds = -std::log(1.0 - rng.UniformDouble()) / rate_per_s;
  const double ns = seconds * static_cast<double>(sim::kSecond);
  return FitsTimeNs(ns) ? static_cast<sim::TimeNs>(ns)
                        : std::numeric_limits<sim::TimeNs>::max();
}

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kSensingBurstStart:
      return "sensing_burst_start";
    case FaultKind::kSensingBurstEnd:
      return "sensing_burst_end";
    case FaultKind::kPuActivityStart:
      return "pu_activity_start";
    case FaultKind::kPuActivityEnd:
      return "pu_activity_end";
  }
  return "unknown";
}

bool ParsePlanText(const std::string& text, FaultPlan& plan, std::string& error) {
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  // Cursor-based tokenizer so every error carries the 1-based column of the
  // offending construct: `token_start` tracks where the token most recently
  // looked at begins (or the line end when a token was missing entirely).
  std::size_t cursor = 0;
  std::size_t token_start = 0;
  auto next_token = [&](std::string& token) {
    while (cursor < line.size() &&
           std::isspace(static_cast<unsigned char>(line[cursor]))) {
      ++cursor;
    }
    token_start = cursor;
    if (cursor >= line.size()) return false;
    while (cursor < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[cursor]))) {
      ++cursor;
    }
    token = line.substr(token_start, cursor - token_start);
    return true;
  };
  auto fail = [&](const std::string& message) {
    std::ostringstream out;
    out << "line " << line_number << ", column " << (token_start + 1) << ": "
        << message;
    error = out.str();
    return false;
  };
  auto read_double = [&](double& value, const std::string& usage) {
    std::string token;
    if (!next_token(token)) return fail(usage);
    char* end = nullptr;
    value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return fail("'" + token + "' is not a number (" + usage + ")");
    }
    if (!std::isfinite(value)) {
      return fail("'" + token + "' is not a finite number (" + usage + ")");
    }
    return true;
  };
  // A millisecond value whose nanosecond count fits the int64 clock.
  auto read_ms = [&](double& ms, const std::string& usage) {
    if (!read_double(ms, usage)) return false;
    if (!FitsTimeNs(ms * static_cast<double>(sim::kMillisecond))) {
      return fail("'" + line.substr(token_start, cursor - token_start) +
                  "' ms is out of range: its nanoseconds do not fit in int64");
    }
    return true;
  };
  // A Poisson rate in (0, kMaxRatePerS] per second.
  auto read_rate = [&](double& rate, const std::string& usage, const std::string& what) {
    if (!read_double(rate, usage)) return false;
    if (rate <= 0.0) return fail(what + " rate must be > 0 /s");
    if (rate > kMaxRatePerS) {
      return fail(what + " rate must be <= 1e9 /s: a faster process has a mean "
                  "gap below the 1 ns clock");
    }
    return true;
  };
  auto read_int = [&](std::int64_t& value, const std::string& usage) {
    std::string token;
    if (!next_token(token)) return fail(usage);
    char* end = nullptr;
    value = std::strtoll(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size()) {
      return fail("'" + token + "' is not an integer (" + usage + ")");
    }
    return true;
  };
  while (std::getline(lines, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    cursor = 0;
    token_start = 0;
    std::string word;
    if (!next_token(word)) continue;  // blank / comment-only line

    if (word == "at") {
      double ms = 0.0;
      std::string what;
      if (!read_ms(ms, "expected: at <ms> <fault> ...")) return false;
      if (ms < 0.0) return fail("fault time must be >= 0 ms");
      if (!next_token(what)) return fail("expected: at <ms> <fault> ...");
      const sim::TimeNs when = MsToNs(ms);
      if (what == "crash" || what == "recover") {
        std::int64_t node = 0;
        if (!read_int(node, "expected: at <ms> " + what + " <node>")) return false;
        FaultEvent event;
        event.time = when;
        event.kind = what == "crash" ? FaultKind::kCrash : FaultKind::kRecover;
        event.node = static_cast<graph::NodeId>(node);
        plan.scripted.push_back(event);
      } else if (what == "sensing_burst") {
        const std::string usage =
            "expected: at <ms> sensing_burst <fa> <md> <duration_ms>";
        double fa = 0.0;
        double md = 0.0;
        double duration_ms = 0.0;
        if (!read_double(fa, usage)) return false;
        if (fa < 0.0 || fa > 1.0) return fail("sensing rates must be in [0, 1]");
        if (!read_double(md, usage)) return false;
        if (md < 0.0 || md > 1.0) return fail("sensing rates must be in [0, 1]");
        if (!read_ms(duration_ms, usage)) return false;
        if (duration_ms <= 0.0) return fail("burst duration must be > 0 ms");
        FaultEvent start;
        start.time = when;
        start.kind = FaultKind::kSensingBurstStart;
        start.false_alarm = fa;
        start.missed_detection = md;
        plan.scripted.push_back(start);
        FaultEvent end;
        end.time = AddSaturating(when, MsToNs(duration_ms));
        end.kind = FaultKind::kSensingBurstEnd;
        plan.scripted.push_back(end);
      } else if (what == "pu_activity") {
        const std::string usage = "expected: at <ms> pu_activity <p> <duration_ms>";
        double activity = 0.0;
        double duration_ms = 0.0;
        if (!read_double(activity, usage)) return false;
        if (activity < 0.0 || activity > 1.0) {
          return fail("pu activity must be in [0, 1]");
        }
        if (!read_ms(duration_ms, usage)) return false;
        if (duration_ms <= 0.0) return fail("perturbation duration must be > 0 ms");
        FaultEvent start;
        start.time = when;
        start.kind = FaultKind::kPuActivityStart;
        start.pu_activity = activity;
        plan.scripted.push_back(start);
        FaultEvent end;
        end.time = AddSaturating(when, MsToNs(duration_ms));
        end.kind = FaultKind::kPuActivityEnd;
        plan.scripted.push_back(end);
      } else {
        return fail("unknown fault '" + what +
                    "' (want crash|recover|sensing_burst|pu_activity)");
      }
    } else if (word == "gen") {
      std::string what;
      if (!next_token(what)) return fail("expected: gen <generator> ...");
      if (what == "crash") {
        const std::string usage = "expected: gen crash <rate_per_s> <recover_after_ms>";
        CrashGenerator gen;
        double recover_after_ms = 0.0;
        if (!read_rate(gen.rate_per_s, usage, "crash")) return false;
        if (!read_ms(recover_after_ms, usage)) return false;
        gen.recover_after = recover_after_ms < 0.0 ? -1 : MsToNs(recover_after_ms);
        plan.crash_generators.push_back(gen);
      } else if (what == "sensing_burst") {
        const std::string usage =
            "expected: gen sensing_burst <rate_per_s> <fa> <md> <duration_ms>";
        SensingBurstGenerator gen;
        double duration_ms = 0.0;
        if (!read_rate(gen.rate_per_s, usage, "burst")) return false;
        if (!read_double(gen.false_alarm, usage)) return false;
        if (gen.false_alarm < 0.0 || gen.false_alarm > 1.0) {
          return fail("sensing rates must be in [0, 1]");
        }
        if (!read_double(gen.missed_detection, usage)) return false;
        if (gen.missed_detection < 0.0 || gen.missed_detection > 1.0) {
          return fail("sensing rates must be in [0, 1]");
        }
        if (!read_ms(duration_ms, usage)) return false;
        if (duration_ms <= 0.0) return fail("burst duration must be > 0 ms");
        gen.duration = MsToNs(duration_ms);
        plan.burst_generators.push_back(gen);
      } else {
        return fail("unknown generator '" + what + "' (want crash|sensing_burst)");
      }
    } else if (word == "option") {
      std::string name;
      if (!next_token(name)) return fail("expected: option <name> <value>");
      if (name == "horizon_ms") {
        double ms = 0.0;
        if (!read_ms(ms, "expected: option horizon_ms <ms>")) return false;
        if (ms <= 0.0) return fail("horizon_ms wants a value > 0");
        plan.horizon = MsToNs(ms);
      } else if (name == "repair_delay_ms") {
        double ms = 0.0;
        if (!read_ms(ms, "expected: option repair_delay_ms <ms>")) return false;
        if (ms < 0.0) return fail("repair_delay_ms wants a value >= 0");
        plan.repair_delay = MsToNs(ms);
      } else if (name == "retx_budget") {
        std::int64_t k = 0;
        if (!read_int(k, "expected: option retx_budget <k>")) return false;
        if (k < 0) return fail("retx_budget wants an integer >= 0");
        plan.retx_budget = static_cast<std::int32_t>(k);
      } else {
        return fail("unknown option '" + name +
                    "' (want horizon_ms|repair_delay_ms|retx_budget)");
      }
    } else {
      return fail("unknown directive '" + word + "' (want at|gen|option)");
    }
    std::string extra;
    if (next_token(extra)) return fail("trailing token '" + extra + "'");
  }
  return true;
}

bool LoadPlanFile(const std::string& path, FaultPlan& plan, std::string& error) {
  std::ifstream in(path);
  if (!in.good()) {
    error = "cannot open fault plan '" + path + "'";
    return false;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (ParsePlanText(contents.str(), plan, error)) return true;
  error = "fault plan '" + path + "': " + error;
  return false;
}

namespace {

// Heap item during compilation, ordered through the repo's one shared event
// key (sim/event_key.h) — the same (time, class, sequence) total order the
// simulator's scheduler backends use, with FaultKind as the class band and
// the deterministic insertion order as the sequence tie-break.
struct PendingEvent {
  FaultEvent event;
  std::int64_t seq = 0;
  // kCrash events from a generator have no victim yet; it is drawn at pop
  // time so the live set reflects every earlier crash and recovery.
  std::int32_t crash_generator = -1;

  [[nodiscard]] sim::EventKey key() const {
    return sim::EventKey{event.time, static_cast<std::int32_t>(event.kind),
                         static_cast<std::uint64_t>(seq)};
  }

  bool operator>(const PendingEvent& other) const { return key() > other.key(); }
};

bool NamesNode(const FaultEvent& event) {
  return event.kind == FaultKind::kCrash || event.kind == FaultKind::kRecover;
}

// "fault plan event 'at <ms> ms <kind> [node]': " — the head of every
// error about one event.
std::string EventError(const FaultEvent& event) {
  std::ostringstream error;
  error << "fault plan event 'at " << sim::ToMilliseconds(event.time) << " ms "
        << ToString(event.kind);
  if (NamesNode(event)) error << " " << event.node;
  error << "': ";
  return error.str();
}

}  // namespace

std::string CheckScriptedEvents(const FaultPlan& plan, graph::NodeId node_count,
                                graph::NodeId sink) {
  std::vector<std::size_t> order(plan.scripted.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const FaultEvent& x = plan.scripted[a];
    const FaultEvent& y = plan.scripted[b];
    return x.time != y.time ? x.time < y.time : x.kind < y.kind;
  });
  std::vector<char> down(static_cast<std::size_t>(std::max(node_count, 0)), 0);
  for (const std::size_t index : order) {
    const FaultEvent& event = plan.scripted[index];
    std::ostringstream error;
    error << EventError(event);
    if (event.time < 0) return error.str() + "time is negative";
    if (!NamesNode(event)) continue;
    if (event.node < 0 || event.node >= node_count) {
      error << "node " << event.node << " is out of range [0, " << node_count << ")";
      return error.str();
    }
    if (event.node == sink) {
      error << "the base station (node " << sink << ") cannot crash or recover";
      return error.str();
    }
    char& is_down = down[static_cast<std::size_t>(event.node)];
    if (event.kind == FaultKind::kCrash && is_down) {
      error << "node " << event.node << " is already down";
      return error.str();
    }
    if (event.kind == FaultKind::kRecover && !is_down) {
      error << "node " << event.node << " is not down";
      return error.str();
    }
    is_down = event.kind == FaultKind::kCrash ? 1 : 0;
  }
  return {};
}

std::string CompileFaultTimeline(const FaultPlan& plan, const Rng& rng,
                                 graph::NodeId node_count, graph::NodeId sink,
                                 std::vector<FaultEvent>& timeline) {
  timeline.clear();
  CRN_CHECK(node_count > 0) << "node_count=" << node_count;
  CRN_CHECK(sink >= 0 && sink < node_count) << "sink " << sink << " out of range";
  CRN_CHECK(plan.horizon > 0) << "horizon=" << plan.horizon;
  CRN_CHECK(plan.repair_delay >= 0) << "repair_delay=" << plan.repair_delay;
  CRN_CHECK(plan.retx_budget >= 0) << "retx_budget=" << plan.retx_budget;

  std::priority_queue<PendingEvent, std::vector<PendingEvent>, std::greater<>> heap;
  std::int64_t seq = 0;
  auto push = [&](const FaultEvent& event, std::int32_t crash_generator = -1) {
    heap.push(PendingEvent{event, seq++, crash_generator});
  };

  if (std::string error = CheckScriptedEvents(plan, node_count, sink); !error.empty()) {
    return error;
  }
  for (const FaultEvent& event : plan.scripted) push(event);

  // Crash arrivals (victims resolved during the chronological scan below).
  for (std::size_t g = 0; g < plan.crash_generators.size(); ++g) {
    const CrashGenerator& gen = plan.crash_generators[g];
    CRN_CHECK(gen.rate_per_s > 0.0) << "crash generator rate=" << gen.rate_per_s;
    Rng times = rng.Stream("fault-crash-times", g);
    const sim::TimeNs end = gen.end < 0 ? plan.horizon : gen.end;
    sim::TimeNs t = gen.start;
    while (true) {
      t = AddSaturating(t, ExponentialGapNs(times, gen.rate_per_s));
      if (t >= end) break;
      FaultEvent event;
      event.time = t;
      event.kind = FaultKind::kCrash;
      push(event, static_cast<std::int32_t>(g));
    }
  }

  // Sensing bursts need no aliveness context; expand directly.
  for (std::size_t g = 0; g < plan.burst_generators.size(); ++g) {
    const SensingBurstGenerator& gen = plan.burst_generators[g];
    CRN_CHECK(gen.rate_per_s > 0.0) << "burst generator rate=" << gen.rate_per_s;
    CRN_CHECK(gen.duration > 0) << "burst duration=" << gen.duration;
    CRN_CHECK(gen.false_alarm >= 0.0 && gen.false_alarm <= 1.0);
    CRN_CHECK(gen.missed_detection >= 0.0 && gen.missed_detection <= 1.0);
    Rng times = rng.Stream("fault-burst-times", g);
    const sim::TimeNs end = gen.end < 0 ? plan.horizon : gen.end;
    sim::TimeNs t = gen.start;
    while (true) {
      t = AddSaturating(t, ExponentialGapNs(times, gen.rate_per_s));
      if (t >= end) break;
      FaultEvent start;
      start.time = t;
      start.kind = FaultKind::kSensingBurstStart;
      start.false_alarm = gen.false_alarm;
      start.missed_detection = gen.missed_detection;
      push(start);
      FaultEvent stop;
      stop.time = AddSaturating(t, gen.duration);
      stop.kind = FaultKind::kSensingBurstEnd;
      push(stop);
    }
  }

  // Chronological scan: resolve generated crash victims against the live
  // set, check scripted crashes/recoveries against the generated ones (the
  // script alone was checked above), emit in pop order
  // (sorted by time, then kind, then insertion). The emitted timeline is
  // therefore already sorted the way the injector will schedule it.
  Rng victims = rng.Stream("fault-crash-victims");
  std::vector<char> alive(static_cast<std::size_t>(node_count), 1);
  std::vector<graph::NodeId> eligible;
  while (!heap.empty()) {
    PendingEvent pending = heap.top();
    heap.pop();
    FaultEvent& event = pending.event;
    switch (event.kind) {
      case FaultKind::kCrash: {
        if (pending.crash_generator >= 0) {
          eligible.clear();
          for (graph::NodeId v = 0; v < node_count; ++v) {
            if (alive[v] && v != sink) eligible.push_back(v);
          }
          if (eligible.empty()) continue;  // nobody left to kill; skip arrival
          event.node = eligible[victims.UniformInt(eligible.size())];
          const CrashGenerator& gen =
              plan.crash_generators[static_cast<std::size_t>(pending.crash_generator)];
          if (gen.recover_after >= 0) {
            FaultEvent recover;
            recover.time = AddSaturating(event.time, gen.recover_after);
            recover.kind = FaultKind::kRecover;
            recover.node = event.node;
            push(recover, pending.crash_generator);
          }
        } else if (!alive[event.node]) {
          return EventError(event) + "node " + std::to_string(event.node) +
                 " is already down (a generated crash took it)";
        }
        alive[event.node] = 0;
        break;
      }
      case FaultKind::kRecover:
        if (pending.crash_generator >= 0) {
          // Generator-paired recovery: drop it silently if a scripted event
          // already brought the node back (plans may race the generator).
          if (alive[event.node]) continue;
        } else if (alive[event.node]) {
          return EventError(event) + "node " + std::to_string(event.node) +
                 " is not down (a generated recovery revived it)";
        }
        alive[event.node] = 1;
        break;
      case FaultKind::kSensingBurstStart:
      case FaultKind::kSensingBurstEnd:
      case FaultKind::kPuActivityStart:
      case FaultKind::kPuActivityEnd:
        break;
    }
    timeline.push_back(event);
  }
  return {};
}

std::vector<FaultEvent> CompileFaultTimeline(const FaultPlan& plan, const Rng& rng,
                                             graph::NodeId node_count,
                                             graph::NodeId sink) {
  std::vector<FaultEvent> timeline;
  const std::string error = CompileFaultTimeline(plan, rng, node_count, sink, timeline);
  CRN_CHECK(error.empty()) << error;
  return timeline;
}

}  // namespace crn::faults
