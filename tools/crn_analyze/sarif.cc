#include "crn_analyze/sarif.h"

#include <array>
#include <cstdio>
#include <map>
#include <string>

namespace crn::analyze {

namespace {

// Rule metadata for the SARIF `rules` array. Keep in sync with rules.h,
// passes.h, and include_graph.h.
const std::map<std::string, std::string>& RuleDescriptions() {
  static const std::map<std::string, std::string> kRules = {
      {"banned-rng", "std <random>/rand() banned outside common/rng.h"},
      {"wall-clock", "no wall-clock reads in src/"},
      {"raw-db-conversion", "dB conversion must go through common/units.h"},
      {"unordered-iteration", "no iteration over unordered containers in src/"},
      {"float-in-physics", "physics runs in double"},
      {"shared-mutable-rng", "no static/thread_local Rng"},
      {"header-guard", "src/ header guards must match their path"},
      {"throw-in-callback", "no throw in event-callback layers"},
      {"hot-path-math", "no pow()/Distance() in the SIR hot path"},
      {"library-io", "no cout/cerr outside src/harness/"},
      {"suppression-justification",
       "crn-lint-ok markers must carry a reason"},
      {"raw-schedule-in-mac",
       "src/mac schedules through bind-once sim::Timer, not capturing "
       "one-shots"},
      {"unnamed-timer-kind",
       "src/mac Timer binds must name their event kind for the flight "
       "recorder"},
      {"raw-artifact-write",
       "src/ artifact writes must land through harness::WriteFileAtomic"},
      {"hot-path-alloc",
       "no per-cell std::function/heap allocation in the harness dispatch "
       "layer"},
      {"layering", "src/ includes must respect the layer DAG"},
      {"include-cycle", "src/ include graph must be acyclic"},
      {"determinism-taint",
       "no simulation state derived from pointer identity or wall clocks"},
      {"concurrency-discipline",
       "no mutable shared state across parallel sweep cells"},
  };
  return kRules;
}

std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buffer{};
          std::snprintf(buffer.data(), buffer.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          escaped += buffer.data();
        } else {
          escaped.push_back(c);
        }
    }
  }
  return escaped;
}

}  // namespace

void WriteSarif(std::ostream& out, const std::vector<Finding>& findings) {
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"crn_analyze\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/crn_analyze\",\n"
      << "          \"rules\": [\n";
  bool first = true;
  for (const auto& [id, description] : RuleDescriptions()) {
    if (!first) out << ",\n";
    first = false;
    out << "            {\"id\": \"" << JsonEscape(id)
        << "\", \"shortDescription\": {\"text\": \"" << JsonEscape(description)
        << "\"}}";
  }
  out << "\n          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  first = true;
  for (const Finding& finding : findings) {
    if (!first) out << ",\n";
    first = false;
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(finding.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(finding.message)
        << "\"},\n"
        << "          \"partialFingerprints\": {\"crnAnalyze/v1\": \""
        << JsonEscape(finding.fingerprint) << "\"},\n";
    if (finding.suppressed_by_baseline) {
      out << "          \"suppressions\": [{\"kind\": \"external\"}],\n";
    }
    out << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(finding.path) << "\"},\n"
        << "                \"region\": {\"startLine\": "
        << (finding.line > 0 ? finding.line : 1) << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }";
  }
  out << "\n      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
}

}  // namespace crn::analyze
