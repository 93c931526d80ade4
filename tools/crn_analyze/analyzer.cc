#include "crn_analyze/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "crn_analyze/baseline.h"
#include "crn_analyze/include_graph.h"
#include "crn_analyze/passes.h"
#include "crn_analyze/rules.h"
#include "crn_analyze/sarif.h"

namespace crn::analyze {

namespace {

namespace fs = std::filesystem;

std::string ReadFileContent(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool HasSourceExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

// Minimal compile_commands.json reader: extracts every "file" value. The
// file is machine-generated JSON, so a targeted string scan (with escape
// handling) is sufficient — no JSON library in the toolchain.
std::vector<std::string> ParseCompileCommandsFiles(const std::string& content) {
  std::vector<std::string> files;
  const std::string key = "\"file\"";
  std::size_t pos = 0;
  while ((pos = content.find(key, pos)) != std::string::npos) {
    std::size_t i = pos + key.size();
    while (i < content.size() &&
           (content[i] == ' ' || content[i] == ':' || content[i] == '\t')) {
      ++i;
    }
    if (i < content.size() && content[i] == '"') {
      ++i;
      std::string value;
      while (i < content.size() && content[i] != '"') {
        if (content[i] == '\\' && i + 1 < content.size()) {
          value.push_back(content[i + 1]);
          i += 2;
        } else {
          value.push_back(content[i]);
          ++i;
        }
      }
      files.push_back(value);
    }
    pos += key.size();
  }
  return files;
}

// The scan set: src/tests/bench sources, either from a directory walk or —
// compile-commands-aware mode — the TUs the build actually compiles plus
// every header under the scanned roots (headers never appear as TUs).
std::vector<fs::path> CollectFiles(const fs::path& root,
                                   const std::string& compile_commands_path,
                                   std::vector<std::string>& errors) {
  std::set<fs::path> files;
  const std::vector<const char*> tops = {"src", "tests", "bench"};
  auto under_scanned_top = [&](const fs::path& path) {
    const std::string relative = fs::relative(path, root).generic_string();
    for (const char* top : tops) {
      if (relative.rfind(std::string(top) + "/", 0) == 0) return true;
    }
    return false;
  };
  if (!compile_commands_path.empty()) {
    const fs::path cc_path(compile_commands_path);
    if (!fs::exists(cc_path)) {
      errors.push_back(compile_commands_path + ": no such file");
      return {};
    }
    for (const std::string& file :
         ParseCompileCommandsFiles(ReadFileContent(cc_path))) {
      fs::path path(file);
      if (path.is_relative()) path = cc_path.parent_path() / path;
      std::error_code ec;
      path = fs::weakly_canonical(path, ec);
      if (!ec && fs::exists(path) && HasSourceExtension(path) &&
          under_scanned_top(path)) {
        files.insert(path);
      }
    }
  }
  for (const char* top : tops) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) {
      errors.push_back("missing directory " + dir.string());
      return {};
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !HasSourceExtension(entry.path())) {
        continue;
      }
      // In compile-commands mode only headers ride along from the walk.
      if (!compile_commands_path.empty() &&
          entry.path().extension() != ".h") {
        continue;
      }
      files.insert(entry.path());
    }
  }
  return {files.begin(), files.end()};
}

std::vector<Finding> RunAllFilePasses(const SourceFile& file) {
  std::vector<Finding> findings = RunFileRules(file);
  for (Finding& finding : RunDeterminismTaintPass(file)) {
    findings.push_back(std::move(finding));
  }
  for (Finding& finding : RunConcurrencyDisciplinePass(file)) {
    findings.push_back(std::move(finding));
  }
  return findings;
}

void SortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule, a.fingerprint) <
                     std::tie(b.path, b.line, b.rule, b.fingerprint);
            });
}

std::string FixtureLogicalPath(const std::string& file_name) {
  std::string logical = file_name;
  std::size_t pos = 0;
  while ((pos = logical.find("__", pos)) != std::string::npos) {
    logical.replace(pos, 2, "/");
  }
  return logical;
}

}  // namespace

AnalyzeResult AnalyzeTree(const std::string& root,
                          const AnalyzeOptions& options) {
  AnalyzeResult result;
  const fs::path root_path(root);
  const std::vector<fs::path> paths =
      CollectFiles(root_path, options.compile_commands_path, result.errors);
  if (!result.errors.empty()) return result;

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    files.push_back(MakeSourceFile(fs::relative(path, root_path).generic_string(),
                                   ReadFileContent(path)));
  }
  result.files_scanned = static_cast<int>(files.size());

  for (const SourceFile& file : files) {
    for (Finding& finding : RunAllFilePasses(file)) {
      result.findings.push_back(std::move(finding));
    }
  }
  for (Finding& finding : RunIncludeGraphPass(files)) {
    result.findings.push_back(std::move(finding));
  }
  SortFindings(result.findings);

  if (!options.baseline_path.empty()) {
    Baseline baseline = LoadBaseline(options.baseline_path);
    if (!baseline.errors.empty()) {
      result.errors = baseline.errors;
      return result;
    }
    for (std::string& warning : ApplyBaseline(baseline, result.findings)) {
      result.warnings.push_back(std::move(warning));
    }
  }

  if (!options.sarif_out_path.empty()) {
    std::ofstream sarif(options.sarif_out_path);
    if (!sarif) {
      result.errors.push_back(options.sarif_out_path +
                              ": cannot write SARIF output");
      return result;
    }
    WriteSarif(sarif, result.findings);
  }
  return result;
}

int RunSelfTest(const std::string& root) {
  const fs::path fixtures =
      fs::path(root) / "tools" / "crn_analyze" / "fixtures";

  // fixture file name → rule expected to fire ("" = must stay clean).
  const std::map<std::string, std::string> expected = {
      {"src__common__bad_rng.cc", "banned-rng"},
      {"src__sim__bad_clock.cc", "wall-clock"},
      {"src__sim__bad_throw.cc", "throw-in-callback"},
      {"src__spectrum__bad_db.cc", "raw-db-conversion"},
      {"src__mac__bad_iteration.cc", "unordered-iteration"},
      {"src__mac__bad_hot_math.cc", "hot-path-math"},
      {"src__core__bad_float.cc", "float-in-physics"},
      {"src__harness__bad_shared_rng.cc", "shared-mutable-rng"},
      {"src__geom__bad_guard.h", "header-guard"},
      {"src__mac__bad_io.cc", "library-io"},
      {"src__core__clean_fixture.cc", ""},
      {"src__core__clean_rawstring.cc", ""},
      {"src__core__bad_ptr_key.cc", "determinism-taint"},
      {"src__core__bad_ptr_sort.cc", "determinism-taint"},
      {"src__sim__bad_time_seed.cc", "determinism-taint"},
      {"src__mac__bad_static_state.cc", "concurrency-discipline"},
      {"src__core__bad_suppression.cc", "suppression-justification"},
      {"src__mac__bad_raw_schedule.cc", "raw-schedule-in-mac"},
      {"src__mac__bad_unnamed_timer.cc", "unnamed-timer-kind"},
      {"src__obs__bad_artifact_write.cc", "raw-artifact-write"},
      {"src__harness__bad_parallel_runner_alloc.cc", "hot-path-alloc"},
      {"src__core__clean_tokenizer.cc", ""},
  };

  int failures = 0;
  for (const auto& [file_name, rule] : expected) {
    const fs::path file = fixtures / file_name;
    if (!fs::exists(file)) {
      std::cout << "FAIL " << file_name << ": fixture missing\n";
      ++failures;
      continue;
    }
    const SourceFile source =
        MakeSourceFile(FixtureLogicalPath(file_name), ReadFileContent(file));
    const std::vector<Finding> findings = RunAllFilePasses(source);
    if (rule.empty()) {
      if (findings.empty()) {
        std::cout << "PASS " << file_name << ": clean\n";
      } else {
        std::cout << "FAIL " << file_name << ": expected no findings, got "
                  << findings.size() << " ([" << findings.front().rule
                  << "] line " << findings.front().line << ")\n";
        ++failures;
      }
      continue;
    }
    const bool fired =
        std::any_of(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; });
    if (fired) {
      std::cout << "PASS " << file_name << ": [" << rule << "] fired\n";
    } else {
      std::cout << "FAIL " << file_name << ": [" << rule << "] did not fire\n";
      ++failures;
    }
  }

  // Include-graph pass: a deliberately introduced cycle and an upward
  // include, analyzed together as one miniature tree.
  {
    const fs::path graph_dir = fixtures / "graph";
    std::vector<SourceFile> graph_files;
    if (fs::exists(graph_dir)) {
      std::vector<fs::path> fixture_paths;
      for (const auto& entry : fs::directory_iterator(graph_dir)) {
        if (entry.is_regular_file()) fixture_paths.push_back(entry.path());
      }
      std::sort(fixture_paths.begin(), fixture_paths.end());
      for (const fs::path& path : fixture_paths) {
        graph_files.push_back(
            MakeSourceFile(FixtureLogicalPath(path.filename().string()),
                           ReadFileContent(path)));
      }
    }
    const std::vector<Finding> findings = RunIncludeGraphPass(graph_files);
    for (const char* rule : {"include-cycle", "layering"}) {
      const bool fired =
          std::any_of(findings.begin(), findings.end(),
                      [&](const Finding& f) { return f.rule == rule; });
      if (fired) {
        std::cout << "PASS graph fixtures: [" << rule << "] fired\n";
      } else {
        std::cout << "FAIL graph fixtures: [" << rule << "] did not fire\n";
        ++failures;
      }
    }
  }

  // Baseline policy: an entry without a justification must be rejected.
  {
    const fs::path bad_baseline = fixtures / "bad_baseline.txt";
    Baseline baseline = LoadBaseline(bad_baseline.string());
    if (!fs::exists(bad_baseline)) {
      std::cout << "FAIL bad_baseline.txt: fixture missing\n";
      ++failures;
    } else if (!baseline.errors.empty()) {
      std::cout << "PASS bad_baseline.txt: unjustified entry rejected\n";
    } else {
      std::cout << "FAIL bad_baseline.txt: unjustified entry accepted\n";
      ++failures;
    }
  }

  const int total = static_cast<int>(expected.size()) + 3;
  std::cout << "crn_analyze self-test: " << (total - failures) << "/" << total
            << " checks ok\n";
  return failures;
}

}  // namespace crn::analyze
