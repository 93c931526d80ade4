// Orchestration: file discovery (directory walk or compile_commands.json),
// the pass pipeline, baseline application, and the self-test.
#ifndef CRN_ANALYZE_ANALYZER_H_
#define CRN_ANALYZE_ANALYZER_H_

#include <string>
#include <vector>

#include "crn_analyze/analysis.h"

namespace crn::analyze {

struct AnalyzeOptions {
  std::string baseline_path;          // empty: no baseline
  std::string sarif_out_path;         // empty: no SARIF artifact
  std::string compile_commands_path;  // empty: walk src/tests/bench
};

struct AnalyzeResult {
  std::vector<Finding> findings;  // new + baseline-suppressed, in path order
  std::vector<std::string> warnings;
  std::vector<std::string> errors;  // unusable inputs (exit 2)
  int files_scanned = 0;
  [[nodiscard]] int new_finding_count() const {
    int count = 0;
    for (const Finding& finding : findings) {
      if (!finding.suppressed_by_baseline) ++count;
    }
    return count;
  }
};

// Runs all passes over the tree rooted at `root`; exit-code policy is the
// caller's (main.cc prints and maps to 0/1/2).
AnalyzeResult AnalyzeTree(const std::string& root, const AnalyzeOptions& options);

// Proves every rule fires on its fixture in tools/crn_analyze/fixtures/ and
// that clean fixtures stay silent. Returns the number of failures.
int RunSelfTest(const std::string& root);

}  // namespace crn::analyze

#endif  // CRN_ANALYZE_ANALYZER_H_
