// Environment-variable lookup. Typed CRN_* values are read through the
// ranged flag getters (harness/flags.h), which check them like flags.
#ifndef CRN_COMMON_ENV_H_
#define CRN_COMMON_ENV_H_

#include <optional>
#include <string>

namespace crn {

// Returns the raw value of `name`, or nullopt when unset/empty.
std::optional<std::string> GetEnv(const std::string& name);

}  // namespace crn

#endif  // CRN_COMMON_ENV_H_
