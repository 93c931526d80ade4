#include "crn_analyze/rules.h"

#include <cctype>
#include <sstream>

namespace crn::analyze {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Names of variables declared in this file with an unordered container
// type. A heuristic, but one that matches the codebase's declaration style.
std::vector<std::string> UnorderedContainerNames(
    const std::vector<std::string>& code) {
  std::vector<std::string> names;
  for (const std::string& line : code) {
    for (const char* type : {"unordered_map", "unordered_set"}) {
      std::size_t pos = line.find(type);
      if (pos == std::string::npos) continue;
      std::size_t i = line.find('<', pos);
      if (i == std::string::npos) continue;
      int depth = 0;
      for (; i < line.size(); ++i) {
        if (line[i] == '<') ++depth;
        if (line[i] == '>' && --depth == 0) break;
      }
      if (i >= line.size()) continue;  // multi-line type; skip
      ++i;
      while (i < line.size() && (line[i] == ' ' || line[i] == '&')) ++i;
      std::string name;
      while (i < line.size() && IsIdentChar(line[i])) name.push_back(line[i++]);
      if (!name.empty()) names.push_back(name);
    }
  }
  return names;
}

// Names assigned from a RegisterEventKind call that carries a non-empty
// string literal on its own line or the next (`kind = sim.RegisterEventKind(
// "layer.kind")`, with or without a declaration in front): the kind
// handles a Bind may name instead of a literal.
std::vector<std::string> RegisteredKindHandles(
    const std::vector<std::string>& code, const std::vector<bool>& line_has_string) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const std::size_t call = line.find("RegisterEventKind");
    if (call == std::string::npos) continue;
    if (!line_has_string[i] && !(i + 1 < code.size() && line_has_string[i + 1])) {
      continue;
    }
    // The assignment's `=` is the last one before the call that is not part
    // of a comparison.
    std::size_t eq = std::string::npos;
    for (std::size_t k = 0; k < call; ++k) {
      const bool compare = (k + 1 < line.size() && line[k + 1] == '=') ||
                           (k > 0 && std::string("=!<>").find(line[k - 1]) !=
                                         std::string::npos);
      if (line[k] == '=' && !compare) eq = k;
    }
    if (eq == std::string::npos) continue;
    std::size_t end = eq;
    while (end > 0 && line[end - 1] == ' ') --end;
    std::size_t begin = end;
    while (begin > 0 && IsIdentChar(line[begin - 1])) --begin;
    if (begin < end) names.push_back(line.substr(begin, end - begin));
  }
  return names;
}

std::string ExpectedHeaderGuard(const std::string& logical_path) {
  // src/geom/vec2.h ⇒ CRN_GEOM_VEC2_H_
  std::string trimmed = logical_path;
  if (trimmed.rfind("src/", 0) == 0) trimmed = trimmed.substr(4);
  std::string guard = "CRN_";
  for (char c : trimmed) {
    guard.push_back(IsIdentChar(c) ? static_cast<char>(std::toupper(
                                         static_cast<unsigned char>(c)))
                                   : '_');
  }
  guard.push_back('_');
  return guard;
}

// Capture spellings the codebase uses for stateful lambdas. Array indexing
// never produces these shapes, so the match is indexing-proof without a
// full lambda parse.
bool HasCapturingLambda(const std::string& text) {
  for (const char* intro : {"[&", "[=", "[this"}) {
    if (text.find(intro) != std::string::npos) return true;
  }
  return false;
}

constexpr char kSuppressionMarker[] = "crn-lint-ok";
constexpr std::size_t kMinJustificationChars = 8;

// True when the marker on this line carries a `crn-lint-ok: <reason>`
// justification of at least kMinJustificationChars non-space characters.
bool SuppressionIsJustified(const std::string& raw_line) {
  const std::size_t pos = raw_line.find(kSuppressionMarker);
  if (pos == std::string::npos) return true;  // no marker at all
  std::size_t i = pos + sizeof(kSuppressionMarker) - 1;
  if (i >= raw_line.size() || raw_line[i] != ':') return false;
  ++i;
  std::size_t reason_chars = 0;
  for (; i < raw_line.size(); ++i) {
    if (std::isspace(static_cast<unsigned char>(raw_line[i])) == 0) {
      ++reason_chars;
    }
  }
  return reason_chars >= kMinJustificationChars;
}

}  // namespace

bool ContainsWord(const std::string& line, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool ContainsCallOf(const std::string& line, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    std::size_t end = pos + name.size();
    while (end < line.size() && line[end] == ' ') ++end;
    if (left_ok && end < line.size() && line[end] == '(') return true;
    pos = pos + name.size();
  }
  return false;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

std::vector<Finding> RunFileRules(const SourceFile& file) {
  const std::string& logical_path = file.logical_path;
  const std::vector<std::string>& raw_lines = file.raw_lines;
  const std::vector<std::string>& code = file.lex.scrubbed;
  std::vector<Finding> findings;

  const bool in_src = StartsWith(logical_path, "src/");
  const bool is_rng_home = logical_path == "src/common/rng.h";
  const bool is_units_home = logical_path == "src/common/units.h";
  const bool is_header =
      logical_path.size() > 2 &&
      logical_path.compare(logical_path.size() - 2, 2, ".h") == 0;

  auto add = [&](int line_index, const char* rule, std::string message) {
    if (raw_lines[line_index].find(kSuppressionMarker) != std::string::npos) {
      return;
    }
    findings.push_back(Finding{logical_path, line_index + 1, rule,
                               std::move(message),
                               NormalizeForFingerprint(code[line_index]),
                               false});
  };

  // suppression-justification bypasses inline suppression: a bare marker
  // must not be able to silence the rule that polices markers.
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    if (raw_lines[i].find(kSuppressionMarker) == std::string::npos) continue;
    if (SuppressionIsJustified(raw_lines[i])) continue;
    findings.push_back(
        Finding{logical_path, static_cast<int>(i) + 1,
                "suppression-justification",
                "a crn-lint-ok marker must carry its reason inline: "
                "`crn-lint-ok: <why this is safe here>`",
                NormalizeForFingerprint(raw_lines[i]), false});
  }

  const std::vector<std::string> unordered_names =
      in_src ? UnorderedContainerNames(code) : std::vector<std::string>{};

  // unnamed-timer-kind wants "a non-empty string literal near the Bind
  // call", and literal contents are blanked in the scrubbed view — so the
  // string positions come from the token stream instead.
  const bool in_mac = StartsWith(logical_path, "src/mac/");
  std::vector<bool> line_has_string(in_mac ? code.size() : 0, false);
  if (in_mac) {
    for (const Token& token : file.lex.tokens) {
      if (token.kind == TokenKind::kString && !token.text.empty() &&
          token.line >= 1 && token.line <= static_cast<int>(code.size())) {
        line_has_string[static_cast<std::size_t>(token.line - 1)] = true;
      }
    }
  }
  // Kind handles: names assigned from RegisterEventKind("layer.kind") with
  // a literal on that line or the next. A Bind naming one is named.
  const std::vector<std::string> kind_handles =
      in_mac ? RegisteredKindHandles(code, line_has_string)
             : std::vector<std::string>{};

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    if (line.empty()) continue;

    if (!is_rng_home) {
      if (ContainsWord(line, "mt19937") || ContainsWord(line, "random_device")) {
        add(static_cast<int>(i), "banned-rng",
            "std <random> engines are not bit-stable across standard "
            "libraries; use crn::Rng (common/rng.h)");
      } else if (ContainsCallOf(line, "rand") || ContainsCallOf(line, "srand")) {
        add(static_cast<int>(i), "banned-rng",
            "rand() has global hidden state; use crn::Rng (common/rng.h)");
      }
    }

    if (in_src) {
      if (ContainsWord(line, "system_clock") || ContainsWord(line, "steady_clock") ||
          ContainsWord(line, "high_resolution_clock")) {
        add(static_cast<int>(i), "wall-clock",
            "wall-clock reads break per-seed determinism; simulation state "
            "must depend on sim::TimeNs only");
      }
      if (!is_units_home &&
          (line.find("pow(10") != std::string::npos ||
           line.find("pow (10") != std::string::npos)) {
        add(static_cast<int>(i), "raw-db-conversion",
            "convert dB through DbToLinear()/SirThreshold (common/units.h), "
            "not raw std::pow(10, ...)");
      }
      // ContainsCallOf("Distance") does not match DistanceSquared( — the
      // char after the name must be `(` — so the squared-space idiom the
      // rule steers toward passes untouched.
      const bool in_hot_path =
          (StartsWith(logical_path, "src/mac/") ||
           StartsWith(logical_path, "src/spectrum/")) &&
          logical_path != "src/spectrum/interference.h" &&
          logical_path != "src/spectrum/interference_field.h";
      if (in_hot_path &&
          (ContainsCallOf(line, "pow") || ContainsCallOf(line, "Distance"))) {
        add(static_cast<int>(i), "hot-path-math",
            "per-event pow()/Distance() in the SIR hot path; read gains "
            "through the PairGainCache (spectrum/interference_field.h) and "
            "compare squared distances (geom::DistanceSquared)");
      }
      // MAC state machines must drive recurring work through bind-once
      // sim::Timer slots; a fire-and-forget one-shot with a capturing
      // lambda allocates callback state per event on the hottest layer and
      // dodges the arena's generation liveness check. Both the current
      // (ScheduleOnce*) and pre-overhaul (ScheduleAt/ScheduleAfter) names
      // are matched so old-style code cannot regress back in. The lambda
      // may start on the line after the call, so the scan spans both.
      if (StartsWith(logical_path, "src/mac/")) {
        for (const char* name : {"ScheduleOnce", "ScheduleOnceAfter",
                                 "ScheduleAt", "ScheduleAfter"}) {
          if (!ContainsCallOf(line, name)) continue;
          std::string span = line;
          if (i + 1 < code.size()) span += " " + code[i + 1];
          if (HasCapturingLambda(span)) {
            add(static_cast<int>(i), "raw-schedule-in-mac",
                "direct " + std::string(name) +
                    "() with a capturing lambda in src/mac; bind a "
                    "sim::Timer once and Arm*/re-arm it (sim/simulator.h)");
            break;
          }
        }
      }
      // Every Timer/PeriodicTimer bind site in the MAC must name its event
      // kind: the flight recorder, the sched.* per-kind metrics, and
      // crn_trace causal chains all decode through the kind registry, and
      // an unnamed slot degrades every one of them to "unnamed". The kind
      // string is a literal, so it lives in the token stream (scrubbed text
      // blanks it); argument wrapping may push it up to three lines below
      // the call.
      if (in_mac && ContainsCallOf(line, "Bind")) {
        bool named = false;
        for (std::size_t j = i; j < code.size() && j <= i + 3 && !named; ++j) {
          named = line_has_string[j];
          for (const std::string& handle : kind_handles) {
            named = named || ContainsWord(code[j], handle);
          }
        }
        if (!named) {
          add(static_cast<int>(i), "unnamed-timer-kind",
              "Timer::Bind in src/mac without a named event kind; use the "
              "Bind(sim, priority, \"layer.kind\", owner, fn) overload, or "
              "bind under a handle from RegisterEventKind(\"layer.kind\"), so "
              "flight-recorder dumps and sched.* metrics stay decodable");
        }
      }
      // The experiment dispatch layer exists to run millions of cells: a
      // std::function constructed, or a heap node allocated, per cell was
      // exactly the overhead the work-stealing engine removed (chunks are
      // pre-materialized into one flat array). Taking a caller's callback
      // by const std::function& is fine — one object per fan-out, no
      // per-cell construction — so reference parameters are exempt.
      const bool in_dispatch =
          StartsWith(logical_path, "src/harness/") &&
          (logical_path.find("work_stealing") != std::string::npos ||
           logical_path.find("parallel_runner") != std::string::npos);
      if (in_dispatch) {
        const std::size_t fn_pos = line.find("std::function");
        const bool fn_by_reference =
            fn_pos != std::string::npos &&
            line.find(">&", fn_pos) != std::string::npos;
        // make_unique/make_shared match as words, not calls: the explicit
        // template argument list (`make_shared<T>(...)`) puts `<` where a
        // call matcher expects `(`.
        const bool allocates = (fn_pos != std::string::npos &&
                                !fn_by_reference) ||
                               ContainsWord(line, "make_unique") ||
                               ContainsWord(line, "make_shared") ||
                               ContainsWord(line, "new");
        if (allocates) {
          add(static_cast<int>(i), "hot-path-alloc",
              "per-cell allocation in the experiment dispatch layer; "
              "pre-materialize work into flat arrays (work_stealing.h) or "
              "take callbacks by const std::function& — one object per "
              "fan-out, not per cell");
        }
      }
      const bool in_callback_layer =
          StartsWith(logical_path, "src/sim/") ||
          StartsWith(logical_path, "src/mac/") ||
          StartsWith(logical_path, "src/pu/") ||
          StartsWith(logical_path, "src/faults/") ||
          StartsWith(logical_path, "src/core/");
      if (in_callback_layer && ContainsWord(line, "throw")) {
        add(static_cast<int>(i), "throw-in-callback",
            "an exception unwinding through a simulator event callback "
            "strands half-applied MAC/routing state; use CRN_CHECK for "
            "contract violations or return a structured result "
            "(graph::RepairPlan pattern)");
      }
      if (!StartsWith(logical_path, "src/harness/") &&
          (ContainsWord(line, "cout") || ContainsWord(line, "cerr"))) {
        add(static_cast<int>(i), "library-io",
            "library code must not write to the terminal; return values / "
            "take an std::ostream / use an obs:: sink (src/harness/ is the "
            "I/O layer)");
      }
      // A crash — or the crash-recovery soak's SIGKILL — mid-write leaves a
      // truncated artifact that a resume then tries to parse. The sanctioned
      // ofstream lives in harness/atomic_file.cc behind a justified
      // crn-lint-ok marker; everything else renders to a string and lands it
      // via rename(2). ContainsWord keeps ifstream (reads are torn-safe by
      // construction: a validating reader rejects, it never corrupts) out.
      if (ContainsWord(line, "ofstream") || ContainsCallOf(line, "fopen")) {
        add(static_cast<int>(i), "raw-artifact-write",
            "a direct file write can be torn by a crash mid-write; render "
            "to a string and land it with harness::WriteFileAtomic "
            "(harness/atomic_file.h) so readers only ever see complete "
            "artifacts");
      }
      if (ContainsWord(line, "float")) {
        add(static_cast<int>(i), "float-in-physics",
            "physics runs in double; float narrows results "
            "platform-dependently");
      }
      if ((ContainsWord(line, "static") || ContainsWord(line, "thread_local")) &&
          ContainsWord(line, "Rng") && !ContainsWord(line, "const") &&
          !ContainsWord(line, "constexpr")) {
        add(static_cast<int>(i), "shared-mutable-rng",
            "a static/thread_local Rng is shared or thread-dependent state "
            "under the parallel runner; derive a local Rng from the cell's "
            "(seed, point, rep, algorithm) tuple instead");
      }
      for (const std::string& name : unordered_names) {
        const bool range_for = line.find("for") != std::string::npos &&
                               line.find(": " + name) != std::string::npos;
        const bool explicit_iter =
            line.find(name + ".begin()") != std::string::npos ||
            line.find(name + ".cbegin()") != std::string::npos;
        if (range_for || explicit_iter) {
          add(static_cast<int>(i), "unordered-iteration",
              "iteration order of '" + name +
                  "' is implementation-defined and must not feed "
                  "simulation-visible state");
        }
      }
    }
  }

  if (in_src && is_header) {
    const std::string expected = ExpectedHeaderGuard(logical_path);
    bool found_ifndef = false;
    for (std::size_t i = 0; i < code.size(); ++i) {
      std::istringstream tokens(code[i]);
      std::string directive;
      std::string guard;
      tokens >> directive >> guard;
      if (directive != "#ifndef") continue;
      found_ifndef = true;
      if (guard != expected) {
        add(static_cast<int>(i), "header-guard",
            "guard '" + guard + "' does not match path (expected '" + expected +
                "')");
      }
      break;
    }
    if (!found_ifndef) {
      findings.push_back(Finding{logical_path, 1, "header-guard",
                                 "missing #ifndef include guard (expected '" +
                                     expected + "')",
                                 "missing-include-guard", false});
    }
  }

  return findings;
}

}  // namespace crn::analyze
