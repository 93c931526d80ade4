#include "common/simd_width.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"

namespace crn::simd {

namespace {

const std::vector<int>& HostWidths() {
  static const std::vector<int> widths = SupportedWidths();
  return widths;
}

// 0: no cap. Only tests set it; a width changes speed, never results.
std::atomic<int> width_cap{0};

}  // namespace

std::vector<int> SupportedWidths() {
  std::vector<int> widths;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) widths.push_back(8);
  if (__builtin_cpu_supports("avx2")) widths.push_back(4);
#endif
  widths.push_back(2);
  return widths;
}

int BestWidth() {
  const int cap = width_cap.load(std::memory_order_relaxed);
  const std::vector<int>& widths = HostWidths();
  return cap == 0 ? widths.front() : cap;
}

namespace internal {

void SetWidthCapForTesting(int width) {
  const std::vector<int>& widths = HostWidths();
  CRN_CHECK(width == 0 || std::find(widths.begin(), widths.end(), width) != widths.end())
      << "kernel width " << width << " is not runnable on this host";
  width_cap.store(width, std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace crn::simd
