// Lint fixture (logical path src/mac/bad_iteration.cc): iterating an
// unordered container into simulation-visible state. crn_analyze --self-test
// requires [unordered-iteration] to fire here.
#include <cstdint>
#include <unordered_set>

namespace crn::mac {

std::int64_t BadNeighborSum(const std::unordered_set<std::int32_t>& neighbors) {
  std::int64_t sum = 0;
  for (std::int32_t node : neighbors) {
    sum = sum * 31 + node;  // order-dependent: first divergence point
  }
  return sum;
}

}  // namespace crn::mac
