// Minimal command-line flag parsing for the CLI tools: --key=value and
// --key value forms, typed getters with defaults, and strict detection of
// unknown or malformed flags (a tool should fail loudly on a typo, not
// silently simulate the wrong configuration).
#ifndef CRN_HARNESS_FLAGS_H_
#define CRN_HARNESS_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace crn::harness {

class FlagParser {
 public:
  // Parses argv; flags are --name=value or --name value; a bare --name is a
  // boolean true. Non-flag arguments are collected as positionals.
  FlagParser(int argc, const char* const* argv);

  [[nodiscard]] bool Has(const std::string& name) const;

  // Typed getters; consume marks the flag as recognized. Malformed values
  // are reported via errors().
  std::string GetString(const std::string& name, const std::string& fallback);
  double GetDouble(const std::string& name, double fallback);
  std::int64_t GetInt(const std::string& name, std::int64_t fallback);
  bool GetBool(const std::string& name, bool fallback);
  // A value that must be one of `choices`; any other is reported via
  // errors(), naming the flag and the accepted values.
  std::string GetChoice(const std::string& name, const std::string& fallback,
                        std::initializer_list<std::string_view> choices);

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  // Flags present on the command line but never consumed by a getter, plus
  // parse errors — call after all getters and refuse to run if non-empty.
  [[nodiscard]] std::vector<std::string> UnconsumedFlags() const;
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  std::vector<std::string> positionals_;
  std::vector<std::string> errors_;
};

}  // namespace crn::harness

#endif  // CRN_HARNESS_FLAGS_H_
