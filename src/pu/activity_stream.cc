#include "pu/activity_stream.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "common/check.h"
#include "common/spare_threads.h"

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

// The block of kBlockDraws draws starting at serial state `base`, compared
// against thresholds t0 (plane 0) and t1 (plane 1; written only when it
// differs from t0), by the width-`width` kernel. Returns the serial state
// after the block's last draw. The one fill routine: inline refills and the
// helper thread both call it.
Rng FillBlock(int width, const Rng& base, std::uint64_t t0, std::uint64_t t1,
              std::uint64_t* plane0, std::uint64_t* plane1) {
  LaneStates lanes;
  for (int i = 0; i < 4; ++i) lanes[0][i] = base.state_word(i);
  const LaneJump& jump = LaneJumpMatrix();
  for (std::int32_t k = 1; k < ActivityStream::kLanes; ++k) {
    ApplyJump(jump, lanes[k - 1], lanes[k]);
  }
  KernelFor(width)(lanes, t0, t1, t0 != t1, plane0, plane1);
  const std::uint64_t* last = lanes[ActivityStream::kLanes - 1];
  Rng next;
  next.RestoreState(last[0], last[1], last[2], last[3]);
  return next;
}

bool SameState(const Rng& a, const Rng& b) {
  for (int i = 0; i < 4; ++i) {
    if (a.state_word(i) != b.state_word(i)) return false;
  }
  return true;
}

// Set only by tests: start every helper at the first refill, unbudgeted.
std::atomic<bool> forced_for_testing{false};

}  // namespace

// A helper thread that draws the blocks after the consumer's current one
// into a ring of kRingBlocks. Everything below `mutex_` is guarded by it,
// except the planes of the one ring slot the helper is filling, which no
// consumer reads until the helper publishes it under the mutex.
//
// The helper draws from `draw_base_` under `thresholds_`, publishing each
// block at the ring's tail and advancing `draw_base_` to the block's end,
// until the ring is full; it then sleeps until the consumer has taken half
// the ring (one wake per kRingBlocks / 2 blocks, no spinning). Restart
// empties the ring and bumps `epoch_`; a block the helper was drawing when
// its epoch ended is dropped, never published. So every block in the ring
// starts where the one before it ends, the first at the consumer's
// next_base_, under the consumer's thresholds. A consumer that finds the
// ring empty while the helper draws the block it needs waits for that
// block rather than draw it a second time.
class ActivityStream::Lookahead {
 public:
  Lookahead(int width, bool holds_permit, const Rng& base, std::uint64_t t0,
            std::uint64_t t1)
      : width_(width), holds_permit_(holds_permit), draw_base_(base), thresholds_{t0, t1} {
    thread_ = std::thread([this] { Run(); });
  }

  ~Lookahead() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
    if (holds_permit_) spare_threads::Release();
  }

  Lookahead(const Lookahead&) = delete;
  Lookahead& operator=(const Lookahead&) = delete;

  // Drops the lookahead: the helper draws next from `base` under (t0, t1).
  void Restart(const Rng& base, std::uint64_t t0, std::uint64_t t1) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++epoch_;
      count_ = 0;
      draw_base_ = base;
      thresholds_[0] = t0;
      thresholds_[1] = t1;
    }
    wake_.notify_one();
  }

  // When a block is ready, or the helper is drawing it, copies its plane
  // words (plane 1 only when `two_planes`) into `planes`, sets `next_base`
  // to its end and returns true. The block starts at `base`. Re-raises a
  // failure of the helper.
  bool Take(const Rng& base, bool two_planes, PlaneArray& planes, Rng& next_base) {
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (count_ == 0 && drawing_epoch_ == epoch_) {
        // With the ring empty the helper draws from the consumer's
        // next_base_, so its block is this one. Only this thread restarts
        // or stops the helper, so the block is published or a failure is
        // kept before the wait ends.
        waiting_ = true;
        ready_.wait(lock, [this] { return count_ > 0 || error_ != nullptr; });
        waiting_ = false;
      }
      if (error_ != nullptr) std::rethrow_exception(error_);
      if (count_ == 0) return false;
      const Block& block = ring_[static_cast<std::size_t>(head_)];
      CRN_DCHECK(block.epoch == epoch_) << "a block of a dropped lookahead was kept";
      CRN_DCHECK(SameState(block.base, base)) << "the next block does not start at next_base_";
      std::copy(block.planes[0].begin(), block.planes[0].end(), planes[0].begin());
      if (two_planes) {
        std::copy(block.planes[1].begin(), block.planes[1].end(), planes[1].begin());
      }
      next_base = block.next_base;
      head_ = (head_ + 1) % kRingBlocks;
      --count_;
      wake = count_ == kRingBlocks / 2;
    }
    if (wake) wake_.notify_one();
    return true;
  }

 private:
  static constexpr std::int32_t kRingBlocks = 8;
  // drawing_epoch_ while the helper draws no block; epoch_ never reaches it.
  static constexpr std::uint64_t kNotDrawing = ~std::uint64_t{0};

  struct Block {
    std::uint64_t epoch = 0;
    Rng base;
    Rng next_base;
    std::array<std::array<std::uint64_t, kBlockWords>, 2> planes{};
  };

  // The helper's loop. It allocates nothing; a failure is kept for the
  // consumer's next Take to re-raise.
  void Run() {
    std::unique_lock<std::mutex> lock(mutex_);
    try {
      for (;;) {
        wake_.wait(lock, [this] { return stop_ || count_ < kRingBlocks; });
        if (stop_) return;
        const std::uint64_t epoch = epoch_;
        const Rng base = draw_base_;
        const std::uint64_t t0 = thresholds_[0];
        const std::uint64_t t1 = thresholds_[1];
        // Outside [head_, head_ + count_): no consumer reads it until it is
        // published, and only this thread publishes.
        Block& block = ring_[static_cast<std::size_t>((head_ + count_) % kRingBlocks)];
        drawing_epoch_ = epoch;
        lock.unlock();
        const Rng next =
            FillBlock(width_, base, t0, t1, block.planes[0].data(), block.planes[1].data());
        lock.lock();
        drawing_epoch_ = kNotDrawing;
        if (epoch != epoch_) continue;  // restarted while drawing
        block.epoch = epoch;
        block.base = base;
        block.next_base = next;
        ++count_;
        draw_base_ = next;
        if (waiting_) ready_.notify_one();
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      error_ = std::current_exception();
      if (waiting_) ready_.notify_one();
    }
  }

  const int width_;
  const bool holds_permit_;
  std::mutex mutex_;
  std::condition_variable wake_;   // the helper waits on it
  std::condition_variable ready_;  // a consumer waits on it for a block
  bool stop_ = false;
  bool waiting_ = false;  // a consumer waits on ready_
  std::uint64_t epoch_ = 0;
  std::uint64_t drawing_epoch_ = kNotDrawing;  // the epoch of the block in the helper's hands
  Rng draw_base_;
  std::uint64_t thresholds_[2];
  std::array<Block, kRingBlocks> ring_;
  std::int32_t head_ = 0;
  std::int32_t count_ = 0;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after every member it uses
};

ActivityStream::ActivityStream(const Rng& rng, int width)
    : width_(width),
      base_(rng),
      next_base_(rng),
      force_lookahead_(forced_for_testing.load(std::memory_order_relaxed)) {
  const std::vector<int> widths = simd::SupportedWidths();
  CRN_CHECK(std::find(widths.begin(), widths.end(), width) != widths.end())
      << "kernel width " << width << " is not runnable on this host";
}

ActivityStream::~ActivityStream() = default;

void ActivityStream::ChangeThresholds(std::uint64_t plane0, std::uint64_t plane1) {
  thresholds_[0] = plane0;
  thresholds_[1] = plane1;
  two_planes_ = plane0 != plane1;
  if (pos_ < kBlockDraws) Fill();
  RestartLookahead();
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
  } else {
    Fill();
    pos_ = skip;
  }
  RestartLookahead();
}

void ActivityStream::Refill() {
  base_ = next_base_;
  pos_ = 0;
  if (lookahead_ != nullptr && lookahead_->Take(base_, two_planes_, planes_, next_base_)) {
    ++helper_blocks_;
    return;
  }
  Fill();
  if (lookahead_ != nullptr) {
    // The helper had not started this block: move it on to the next one.
    RestartLookahead();
    return;
  }
  if (++refills_ < kRefillsBeforeHelper && !force_lookahead_) return;
  if (!force_lookahead_ && !spare_threads::TryAcquire()) return;
  try {
    lookahead_ = std::make_unique<Lookahead>(width_, /*holds_permit=*/!force_lookahead_,
                                             next_base_, thresholds_[0], thresholds_[1]);
  } catch (const std::system_error&) {
    // No thread could be started: draw inline, as without a permit.
    if (!force_lookahead_) spare_threads::Release();
  }
}

void ActivityStream::Fill() {
  next_base_ = FillBlock(width_, base_, thresholds_[0], thresholds_[1], planes_[0].data(),
                         planes_[1].data());
}

void ActivityStream::RestartLookahead() {
  if (lookahead_ != nullptr) lookahead_->Restart(next_base_, thresholds_[0], thresholds_[1]);
}

namespace internal {

void ForceLookaheadForTesting(bool on) { forced_for_testing.store(on, std::memory_order_relaxed); }

bool DrawingAhead(const ActivityStream& stream) { return stream.lookahead_ != nullptr; }

std::int64_t HelperBlocks(const ActivityStream& stream) { return stream.helper_blocks_; }

}  // namespace internal

}  // namespace crn::pu
