#include "harness/flags.h"

namespace crn::harness {

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

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double FlagParser::GetDouble(const std::string& name, double fallback) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(it->second, &pos);
    if (pos == it->second.size()) return parsed;
  } catch (const std::exception&) {
  }
  errors_.push_back("--" + name + "=" + it->second + " is not a number");
  return fallback;
}

std::int64_t FlagParser::GetInt(const std::string& name, std::int64_t fallback) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(it->second, &pos);
    if (pos == it->second.size()) return parsed;
  } catch (const std::exception&) {
  }
  errors_.push_back("--" + name + "=" + it->second + " is not an integer");
  return fallback;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  errors_.push_back("--" + name + "=" + v + " is not a boolean");
  return fallback;
}

std::string FlagParser::GetChoice(const std::string& name, const std::string& fallback,
                                  std::initializer_list<std::string_view> choices) {
  const std::string value = GetString(name, fallback);
  std::string accepted;
  for (const std::string_view choice : choices) {
    if (choice == value) return value;
    if (!accepted.empty()) accepted += '|';
    accepted += choice;
  }
  errors_.push_back("--" + name + "=" + value + " is not one of " + accepted);
  return fallback;
}

std::vector<std::string> FlagParser::UnconsumedFlags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (!consumed_.contains(name)) unknown.push_back("--" + name);
  }
  return unknown;
}

}  // namespace crn::harness
