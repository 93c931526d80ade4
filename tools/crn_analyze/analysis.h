// Core vocabulary types shared by every crn_analyze pass.
//
// crn_analyze is a small multi-pass framework: a real tokenizer feeds
// per-file rules, and whole-tree passes (include-graph layering,
// determinism taint, concurrency discipline) see across file boundaries.
// Every pass reports through the same Finding type so baselining, SARIF
// export, and the self-test treat all rules uniformly.
#ifndef CRN_ANALYZE_ANALYSIS_H_
#define CRN_ANALYZE_ANALYSIS_H_

#include <string>
#include <vector>

#include "crn_analyze/lexer.h"

namespace crn::analyze {

struct Finding {
  std::string path;  // logical (repo-relative) path
  int line = 0;
  std::string rule;
  std::string message;
  // Stable identity for baseline matching: independent of line numbers so
  // unrelated edits above a baselined finding do not invalidate the entry.
  // Line findings use the whitespace-normalized scrubbed line; include-graph
  // findings use "include=<target>" / "cycle=<a -> b -> ...>".
  std::string fingerprint;
  bool suppressed_by_baseline = false;
};

// One analyzed file: raw text for suppression markers, scrubbed text and
// tokens for rule matching, include directives for the graph pass.
struct SourceFile {
  std::string logical_path;
  std::vector<std::string> raw_lines;
  LexResult lex;
};

SourceFile MakeSourceFile(std::string logical_path, const std::string& content);

// Collapses interior whitespace runs and trims — the canonical form used by
// Finding::fingerprint and baseline entries.
std::string NormalizeForFingerprint(const std::string& text);

}  // namespace crn::analyze

#endif  // CRN_ANALYZE_ANALYSIS_H_
