// Minimal command-line flag parsing for the CLI tools: --key=value and
// --key value forms, typed getters with defaults, and strict detection of
// unknown or malformed flags (a tool should fail loudly on a typo, not
// silently simulate the wrong configuration). The ranged getters are the
// one place a flag or CRN_* value is range-checked.
#ifndef CRN_HARNESS_FLAGS_H_
#define CRN_HARNESS_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace crn::harness {

// Integers in [min, max], checked in int64 before the caller narrows; the
// default max is int32's, which counts narrow to.
struct IntRange {
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int32_t>::max();
};
inline constexpr IntRange kAnyInt64{std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max()};

// Finite doubles from min to max, each end included unless open.
struct RealRange {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;
};

class FlagParser {
 public:
  // Parses argv; flags are --name=value or --name value; a bare --name is a
  // boolean true. Non-flag arguments are collected as positionals.
  FlagParser(int argc, const char* const* argv);

  [[nodiscard]] bool Has(const std::string& name) const;

  // Typed getters; consume marks the flag as recognized. A non-null `env`
  // names the variable read when the flag is absent (unset or empty counts
  // as absent). A malformed value, or a number outside `range` (a double
  // must also be finite), is reported via errors() and yields `fallback`,
  // which is never checked.
  std::string GetString(const std::string& name, const std::string& fallback,
                        const char* env = nullptr);
  double GetDouble(const std::string& name, double fallback, const RealRange& range = {},
                   const char* env = nullptr);
  std::int64_t GetInt(const std::string& name, std::int64_t fallback,
                      const IntRange& range = kAnyInt64, const char* env = nullptr);
  bool GetBool(const std::string& name, bool fallback, const char* env = nullptr);
  // A value that must be one of `choices`; any other is reported via
  // errors(), naming the flag and the accepted values. A fallback outside
  // `choices` makes the flag required.
  std::string GetChoice(const std::string& name, const std::string& fallback,
                        const std::vector<std::string_view>& choices);

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  // Flags present on the command line but never consumed by a getter, plus
  // parse errors — call after all getters and refuse to run if non-empty.
  [[nodiscard]] std::vector<std::string> UnconsumedFlags() const;
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }
  // Prints both as `error:` lines; true when there were any.
  bool ReportErrors(std::ostream& out) const;

 private:
  // Where a value came from ("--name" or the variable) and its text.
  struct Source {
    std::string label;
    std::string raw;
  };
  // Consumes `name`; the flag's value, else the variable's, else nullopt.
  std::optional<Source> Find(const std::string& name, const char* env);
  // The value if present and in range; otherwise reported via errors().
  template <class T>
  std::optional<T> Number(const std::string& name, const char* env, T min, T max,
                          bool min_open, bool max_open);

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  std::vector<std::string> positionals_;
  std::vector<std::string> errors_;
};

}  // namespace crn::harness

#endif  // CRN_HARNESS_FLAGS_H_
