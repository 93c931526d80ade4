#include "pu/activity_stream.h"

#include <algorithm>

#include "common/check.h"

namespace crn::pu {

namespace {

constexpr int kStateBits = 256;
constexpr std::int32_t kWordsPerLane = ActivityStream::kLaneDraws / 64;

using LaneStates = std::uint64_t[ActivityStream::kLanes][4];

// M^L, the xoshiro256** state transition taken L = kLaneDraws times, as 64
// tables of 16 entries, one table per 4-bit group of the state: entry v of
// table g is M^L applied to the state whose group g is v and whose other
// bits are 0. The transition is linear over GF(2), so M^L applied to any
// state is the XOR of one entry per group. Each basis state's image comes
// from stepping it through Rng (256 · L steps, about half a millisecond);
// the tables take 32 KiB.
struct LaneJump {
  std::uint64_t entry[kStateBits / 4][16][4];
};

LaneJump BuildLaneJump() {
  LaneJump jump{};
  for (int j = 0; j < kStateBits; ++j) {
    std::uint64_t basis[4] = {0, 0, 0, 0};
    basis[j >> 6] = std::uint64_t{1} << (j & 63);
    Rng rng;
    rng.RestoreState(basis[0], basis[1], basis[2], basis[3]);
    for (std::int32_t step = 0; step < ActivityStream::kLaneDraws; ++step) rng();
    // Bit j is bit j % 4 of group j / 4: add its image to every entry that
    // has that bit set.
    for (int v = 0; v < 16; ++v) {
      if (((v >> (j & 3)) & 1) == 0) continue;
      for (int i = 0; i < 4; ++i) jump.entry[j >> 2][v][i] ^= rng.state_word(i);
    }
  }
  return jump;
}

const LaneJump& LaneJumpMatrix() {
  static const LaneJump jump = BuildLaneJump();
  return jump;
}

// to = M^L · from over GF(2): one table entry per 4-bit group of from.
void ApplyJump(const LaneJump& jump, const std::uint64_t (&from)[4],
               std::uint64_t (&to)[4]) {
  std::uint64_t acc[4] = {0, 0, 0, 0};
  for (int w = 0; w < 4; ++w) {
    for (int g = 0; g < 16; ++g) {
      const std::uint64_t* entry = jump.entry[w * 16 + g][(from[w] >> (4 * g)) & 15];
      for (int i = 0; i < 4; ++i) acc[i] ^= entry[i];
    }
  }
  for (int i = 0; i < 4; ++i) to[i] = acc[i];
}

// kWidth 64-bit lanes in one register (GCC/Clang vector extensions).
template <int kWidth>
struct LaneVector;
template <>
struct LaneVector<8> {
  typedef std::uint64_t type __attribute__((vector_size(64)));
};
template <>
struct LaneVector<4> {
  typedef std::uint64_t type __attribute__((vector_size(32)));
};
template <>
struct LaneVector<2> {
  typedef std::uint64_t type __attribute__((vector_size(16)));
};

// Advances all kLanes lanes L steps, writing lane k's compare bits to words
// [k·L/64, (k+1)·L/64) of each plane. kWidth lanes share one vector
// register. A draw x = (rotl(s1·5, 7)·9) >> 11 is below threshold t exactly
// when x − t wraps, i.e. sets bit 63 (both are below 2^53 + 1), so each
// bit is shifted in from the top and lands at its draw's position after 64
// steps. Only shifts, adds, multiplies by constants and bitwise operations:
// every width computes the same bits.
template <int kWidth, bool kTwoPlanes>
[[gnu::always_inline]] inline void RunLanes(LaneStates& lanes, std::uint64_t t0,
                                            std::uint64_t t1, std::uint64_t* plane0,
                                            std::uint64_t* plane1) {
  using V = typename LaneVector<kWidth>::type;
  constexpr int kVecs = ActivityStream::kLanes / kWidth;
  V s0[kVecs];
  V s1[kVecs];
  V s2[kVecs];
  V s3[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    for (int e = 0; e < kWidth; ++e) {
      s0[v][e] = lanes[v * kWidth + e][0];
      s1[v][e] = lanes[v * kWidth + e][1];
      s2[v][e] = lanes[v * kWidth + e][2];
      s3[v][e] = lanes[v * kWidth + e][3];
    }
  }
  const V top = V{} + (std::uint64_t{1} << 63);
  const V threshold0 = V{} + t0;
  const V threshold1 = V{} + t1;
  for (std::int32_t w = 0; w < kWordsPerLane; ++w) {
    V bits0[kVecs] = {};
    V bits1[kVecs] = {};
    for (int b = 0; b < 64; ++b) {
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) {
        const V scaled = s1[v] * 5;
        const V draw = (((scaled << 7) | (scaled >> 57)) * 9) >> 11;
        bits0[v] = (bits0[v] >> 1) | ((draw - threshold0) & top);
        if constexpr (kTwoPlanes) {
          bits1[v] = (bits1[v] >> 1) | ((draw - threshold1) & top);
        }
        const V t = s1[v] << 17;
        s2[v] ^= s0[v];
        s3[v] ^= s1[v];
        s1[v] ^= s2[v];
        s0[v] ^= s3[v];
        s2[v] ^= t;
        s3[v] = (s3[v] << 45) | (s3[v] >> 19);
      }
    }
    for (int v = 0; v < kVecs; ++v) {
      for (int e = 0; e < kWidth; ++e) {
        const std::int32_t word = (v * kWidth + e) * kWordsPerLane + w;
        plane0[word] = bits0[v][e];
        if constexpr (kTwoPlanes) plane1[word] = bits1[v][e];
      }
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    for (int e = 0; e < kWidth; ++e) {
      lanes[v * kWidth + e][0] = s0[v][e];
      lanes[v * kWidth + e][1] = s1[v][e];
      lanes[v * kWidth + e][2] = s2[v][e];
      lanes[v * kWidth + e][3] = s3[v][e];
    }
  }
}

using LaneKernel = void (*)(LaneStates&, std::uint64_t, std::uint64_t, bool,
                            std::uint64_t*, std::uint64_t*);

// One entry point per width, each compiled for its ISA. The x86 builtins and
// target attributes are guarded so other architectures build width 2 only.
// Inlined into each entry point, so it compiles for that entry's ISA.
template <int kWidth>
[[gnu::always_inline]] inline void RunLanesAt(LaneStates& lanes, std::uint64_t t0,
                                              std::uint64_t t1, bool two_planes,
                                              std::uint64_t* plane0,
                                              std::uint64_t* plane1) {
  if (two_planes) {
    RunLanes<kWidth, true>(lanes, t0, t1, plane0, plane1);
  } else {
    RunLanes<kWidth, false>(lanes, t0, t1, plane0, plane1);
  }
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx512f")]] void RunLanes8(LaneStates& lanes, std::uint64_t t0,
                                          std::uint64_t t1, bool two_planes,
                                          std::uint64_t* plane0, std::uint64_t* plane1) {
  RunLanesAt<8>(lanes, t0, t1, two_planes, plane0, plane1);
}

[[gnu::target("avx2")]] void RunLanes4(LaneStates& lanes, std::uint64_t t0,
                                       std::uint64_t t1, bool two_planes,
                                       std::uint64_t* plane0, std::uint64_t* plane1) {
  RunLanesAt<4>(lanes, t0, t1, two_planes, plane0, plane1);
}
#endif

void RunLanes2(LaneStates& lanes, std::uint64_t t0, std::uint64_t t1, bool two_planes,
               std::uint64_t* plane0, std::uint64_t* plane1) {
  RunLanesAt<2>(lanes, t0, t1, two_planes, plane0, plane1);
}

LaneKernel KernelFor(int width) {
#if defined(__x86_64__) || defined(__i386__)
  if (width == 8) return RunLanes8;
  if (width == 4) return RunLanes4;
#endif
  CRN_CHECK(width == 2) << "no lane kernel of width " << width;
  return RunLanes2;
}

}  // namespace

ActivityStream::ActivityStream(const Rng& rng, int width)
    : width_(width), base_(rng), next_base_(rng) {
  const std::vector<int> widths = simd::SupportedWidths();
  CRN_CHECK(std::find(widths.begin(), widths.end(), width) != widths.end())
      << "kernel width " << width << " is not runnable on this host";
}

void ActivityStream::ChangeThresholds(std::uint64_t plane0, std::uint64_t plane1) {
  thresholds_[0] = plane0;
  thresholds_[1] = plane1;
  two_planes_ = plane0 != plane1;
  if (pos_ < kBlockDraws) Fill();
}

void ActivityStream::TakeAcrossBlocks(std::int32_t count, std::uint64_t* out) {
  std::fill(out, out + (count + 63) / 64, std::uint64_t{0});
  for (std::int32_t done = 0; done < count;) {
    if (pos_ == kBlockDraws) Refill();
    const std::int32_t n = std::min({count - done, kBlockDraws - pos_, 64 - (done & 63)});
    const std::uint64_t* src = planes_[0].data() + (pos_ >> 6);
    const int shift = pos_ & 63;
    std::uint64_t bits = src[0] >> shift;
    if (shift != 0) bits |= src[1] << (64 - shift);
    if (n < 64) bits &= (std::uint64_t{1} << n) - 1;
    out[done >> 6] |= bits << (done & 63);
    done += n;
    pos_ += n;
  }
}

Rng ActivityStream::StateAt(const Cursor& cursor) {
  CRN_DCHECK(cursor.pos >= 0);
  if (cursor.pos == 0) return cursor.base;
  // Jump to the start of the position's lane, then step within it.
  std::uint64_t lane[4];
  for (int i = 0; i < 4; ++i) lane[i] = cursor.base.state_word(i);
  for (std::int64_t k = 0; k < cursor.pos / kLaneDraws; ++k) {
    ApplyJump(LaneJumpMatrix(), lane, lane);
  }
  Rng rng;
  rng.RestoreState(lane[0], lane[1], lane[2], lane[3]);
  for (std::int64_t i = 0; i < cursor.pos % kLaneDraws; ++i) rng();
  return rng;
}

void ActivityStream::Seek(const Cursor& cursor) {
  // A block may start at any draw: re-anchor at the position's lane start
  // and skip into the block drawn from there.
  const auto skip = static_cast<std::int32_t>(cursor.pos % kLaneDraws);
  base_ = StateAt({cursor.base, cursor.pos - skip});
  if (skip == 0) {
    next_base_ = base_;
    pos_ = kBlockDraws;
    return;
  }
  Fill();
  pos_ = skip;
}

void ActivityStream::Refill() {
  base_ = next_base_;
  pos_ = 0;
  Fill();
}

void ActivityStream::Fill() {
  LaneStates lanes;
  for (int i = 0; i < 4; ++i) lanes[0][i] = base_.state_word(i);
  const LaneJump& jump = LaneJumpMatrix();
  for (std::int32_t k = 1; k < kLanes; ++k) ApplyJump(jump, lanes[k - 1], lanes[k]);
  KernelFor(width_)(lanes, thresholds_[0], thresholds_[1], two_planes_,
                    planes_[0].data(), planes_[1].data());
  const std::uint64_t* last = lanes[kLanes - 1];
  next_base_.RestoreState(last[0], last[1], last[2], last[3]);
}

}  // namespace crn::pu
