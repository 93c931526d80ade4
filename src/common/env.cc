#include "common/env.h"

#include <cstdlib>

namespace crn {

std::optional<std::string> GetEnv(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return std::nullopt;
  }
  return std::string(value);
}

}  // namespace crn
