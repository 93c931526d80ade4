// Run-time choice of SIMD kernel width. Kernels with an AVX2 variant (4
// 64-bit lanes per register) and a baseline variant (2 lanes, every x86-64
// and every other target) ask here which ones this host can run; every
// width computes the same bits, so the choice changes speed, not results.
#ifndef CRN_COMMON_SIMD_WIDTH_H_
#define CRN_COMMON_SIMD_WIDTH_H_

#include <vector>

namespace crn::simd {

// Lane widths this host can run, widest first: 4 where AVX2 runs, then 2.
[[nodiscard]] std::vector<int> SupportedWidths();

// SupportedWidths().front(), probed once per process.
[[nodiscard]] int BestWidth();

}  // namespace crn::simd

#endif  // CRN_COMMON_SIMD_WIDTH_H_
