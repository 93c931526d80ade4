#include "harness/flags.h"

#include <charconv>
#include <cmath>
#include <type_traits>

#include "common/env.h"

namespace crn::harness {

namespace {

// Parses all of `raw` with std::stoll or std::stod.
template <class T>
bool Parse(const std::string& raw, T& out) {
  try {
    std::size_t pos = 0;
    if constexpr (std::is_same_v<T, double>) out = std::stod(raw, &pos);
    else out = std::stoll(raw, &pos);
    return pos == raw.size();
  } catch (const std::exception&) {
    return false;
  }
}

// The shortest text that reads back as `value`.
template <class T>
std::string Text(T value) {
  char buffer[32];
  return std::string(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

}  // namespace

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      errors_.push_back("bare '--' is not a flag");
      continue;
    }
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --name value, unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return values_.contains(name);
}

std::optional<FlagParser::Source> FlagParser::Find(const std::string& name,
                                                   const char* env) {
  consumed_.insert(name);
  if (const auto it = values_.find(name); it != values_.end()) {
    return Source{"--" + name, it->second};
  }
  if (env != nullptr) {
    if (std::optional<std::string> raw = GetEnv(env)) return Source{env, *raw};
  }
  return std::nullopt;
}

template <class T>
std::optional<T> FlagParser::Number(const std::string& name, const char* env,
                                    T min, T max, bool min_open, bool max_open) {
  const std::optional<Source> source = Find(name, env);
  if (!source) return std::nullopt;
  T value{};
  if (!Parse(source->raw, value)) {
    errors_.push_back(source->label + "=" + source->raw + " is not " +
                      (std::is_same_v<T, double> ? "a number" : "an integer"));
    return std::nullopt;
  }
  // NaN fails every comparison; ±inf fails the finite check.
  const bool above = min_open ? value > min : value >= min;
  const bool below = max_open ? value < max : value <= max;
  if (above && below && std::isfinite(static_cast<double>(value))) return value;
  std::vector<std::string> rules;  // a bound at the type's own edge is left out
  if (std::is_same_v<T, double>) rules.push_back("finite");
  if (min > std::numeric_limits<T>::lowest()) {
    rules.push_back((min_open ? "> " : ">= ") + Text(min));
  }
  if (max < std::numeric_limits<T>::max()) {
    rules.push_back((max_open ? "< " : "<= ") + Text(max));
  }
  std::string message = source->label + " must be ";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) message += i + 1 == rules.size() ? " and " : ", ";
    message += rules[i];
  }
  errors_.push_back(message + ", got " + source->raw);
  return std::nullopt;
}

std::string FlagParser::GetString(const std::string& name, const std::string& fallback,
                                  const char* env) {
  const std::optional<Source> source = Find(name, env);
  return source ? source->raw : fallback;
}

double FlagParser::GetDouble(const std::string& name, double fallback,
                             const RealRange& range, const char* env) {
  return Number(name, env, range.min, range.max, range.min_open, range.max_open)
      .value_or(fallback);
}

std::int64_t FlagParser::GetInt(const std::string& name, std::int64_t fallback,
                                const IntRange& range, const char* env) {
  return Number(name, env, range.min, range.max, false, false).value_or(fallback);
}

bool FlagParser::GetBool(const std::string& name, bool fallback, const char* env) {
  const std::optional<Source> source = Find(name, env);
  if (!source) return fallback;
  const std::string& v = source->raw;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  errors_.push_back(source->label + "=" + v + " is not a boolean");
  return fallback;
}

std::string FlagParser::GetChoice(const std::string& name, const std::string& fallback,
                                  const std::vector<std::string_view>& choices) {
  const std::optional<Source> source = Find(name, nullptr);
  const std::string value = source ? source->raw : fallback;
  std::string accepted;
  for (const std::string_view choice : choices) {
    if (choice == value) return value;
    if (!accepted.empty()) accepted += '|';
    accepted += choice;
  }
  errors_.push_back(source ? source->label + "=" + value + " is not one of " + accepted
                           : "--" + name + " is required, one of " + accepted);
  return fallback;
}

bool FlagParser::ReportErrors(std::ostream& out) const {
  for (const std::string& error : errors_) out << "error: " << error << "\n";
  const std::vector<std::string> unknown = UnconsumedFlags();
  for (const std::string& flag : unknown) out << "error: unknown flag " << flag << "\n";
  return !errors_.empty() || !unknown.empty();
}

std::vector<std::string> FlagParser::UnconsumedFlags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (!consumed_.contains(name)) unknown.push_back("--" + name);
  }
  return unknown;
}

}  // namespace crn::harness
