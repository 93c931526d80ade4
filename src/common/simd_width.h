// Run-time choice of SIMD kernel width. Kernels with an AVX-512 variant (8
// 64-bit lanes per register), an AVX2 variant (4) and a baseline variant (2
// lanes, every x86-64 and every other target) ask here which ones this host
// can run; every width computes the same bits, so the choice changes speed,
// not results.
#ifndef CRN_COMMON_SIMD_WIDTH_H_
#define CRN_COMMON_SIMD_WIDTH_H_

#include <vector>

namespace crn::simd {

// Lane widths this host can run, widest first: 8 where AVX-512F runs, 4
// where AVX2 runs, then 2.
[[nodiscard]] std::vector<int> SupportedWidths();

// SupportedWidths().front(), probed once per process, or the width set by
// internal::SetWidthCapForTesting.
[[nodiscard]] int BestWidth();

namespace internal {

// Makes BestWidth() return `width`, one of SupportedWidths(), for the whole
// process; 0 restores the widest. For tests that run whole simulations at each
// width: kernels read BestWidth() when a run builds them, so call it before
// a run starts, never while one is running.
void SetWidthCapForTesting(int width);

}  // namespace internal

}  // namespace crn::simd

#endif  // CRN_COMMON_SIMD_WIDTH_H_
