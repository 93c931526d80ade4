#include "common/simd_width.h"

namespace crn::simd {

std::vector<int> SupportedWidths() {
  std::vector<int> widths;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) widths.push_back(4);
#endif
  widths.push_back(2);
  return widths;
}

int BestWidth() {
  static const int best = SupportedWidths().front();
  return best;
}

}  // namespace crn::simd
