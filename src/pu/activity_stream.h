// The MAC's "pu-activity" random stream, drawn ahead as Bernoulli bits.
//
// Every PU activity draw of a run comes from one xoshiro256** stream in a
// fixed order: slot by slot, PU by PU. PrimaryNetwork::ResampleSlot(Rng&)
// takes those draws one at a time; ActivityStream precomputes them a block
// at a time and hands out the compare results, so a slot boundary reads its
// N activity bits with a few word copies instead of N serial generator
// steps.
//
// A block covers kLanes · kLaneDraws consecutive draws of the sequence. Lane
// k owns draws [k·L, (k+1)·L) of the block; its start state is the block's
// base state advanced k·L steps through the GF(2) jump matrix M^L
// (xoshiro256**'s state transition is linear over GF(2)). The lanes then
// advance together in one vector kernel, so every bit keeps the exact value
// and position the serial generator gives it. The first block is drawn on
// the first read after construction or Restore().
//
// Each draw x is compared against two thresholds at once (two bit planes):
// i.i.d. activity uses one, the Markov chain uses one per PU state (idle
// PUs turn on, active PUs turn off). The thresholds are the integer forms
// of Rng::Bernoulli (Rng::BernoulliThreshold), so a bit equals the
// Bernoulli outcome of that draw exactly.
//
// Blocks may be drawn ahead on a helper thread (DESIGN.md §12, "Drawn ahead
// on a spare core"). From the 4th refill on, a stream that gets a permit
// from the spare-thread budget (common/spare_threads.h) starts one helper
// that fills the blocks after the current one into a small ring; a refill
// takes the next ready block and draws inline, as before, when none is
// ready. A block's bits are a function of its base state and thresholds
// alone and both paths run one fill routine on them, so the helper changes
// where a block is computed, never its bits. A threshold change, Seek and
// Restore drop the lookahead.
#ifndef CRN_PU_ACTIVITY_STREAM_H_
#define CRN_PU_ACTIVITY_STREAM_H_

#include <array>
#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/simd_width.h"

namespace crn::pu {

class ActivityStream;

namespace internal {

// True once a helper thread draws `stream`'s blocks ahead.
bool DrawingAhead(const ActivityStream& stream);
// Blocks `stream` took from its helper instead of drawing them.
std::int64_t HelperBlocks(const ActivityStream& stream);

}  // namespace internal

class ActivityStream {
 public:
  static constexpr std::int32_t kLanes = 8;
  static constexpr std::int32_t kLaneDraws = 2048;  // L
  static constexpr std::int32_t kBlockDraws = kLanes * kLaneDraws;

  // `rng` is the serial generator at the stream's first draw. `width` is
  // the lane kernel's vector width (64-bit lanes per register), one of
  // simd::SupportedWidths(); every width runs the same integer operations
  // and yields the same bits.
  explicit ActivityStream(const Rng& rng, int width = simd::BestWidth());
  // Stops and joins the helper, if one started, and returns its permit.
  ~ActivityStream();
  ActivityStream(const ActivityStream&) = delete;
  ActivityStream& operator=(const ActivityStream&) = delete;

  // Sets the Bernoulli thresholds (Rng::BernoulliThreshold) the two bit
  // planes compare against. Free when unchanged; otherwise the unconsumed
  // rest of the current block is recomputed from its base state.
  void SetThresholds(std::uint64_t plane0, std::uint64_t plane1) {
    if (plane0 != thresholds_[0] || plane1 != thresholds_[1]) {
      ChangeThresholds(plane0, plane1);
    }
  }

  // Consumes one draw and returns its bit on `plane` (0 or 1).
  bool Next(int plane) {
    if (pos_ == kBlockDraws) Refill();
    const std::uint64_t word =
        planes_[two_planes_ ? plane : 0][static_cast<std::size_t>(pos_ >> 6)];
    const bool bit = ((word >> (pos_ & 63)) & 1) != 0;
    ++pos_;
    return bit;
  }

  // Consumes `count` draws and writes their plane-0 bits to `out`, bit i of
  // the run at bit i of the ⌈count/64⌉ words; bits past `count` are zero.
  // Draws inside the current block are shifted word copies; the spare plane
  // word keeps the read of the word after the last in bounds.
  void Take(std::int32_t count, std::uint64_t* out) {
    if (count > kBlockDraws - pos_) {
      TakeAcrossBlocks(count, out);
      return;
    }
    const std::uint64_t* src = planes_[0].data() + (pos_ >> 6);
    const int shift = pos_ & 63;
    const std::int32_t words = (count + 63) >> 6;
    for (std::int32_t w = 0; w < words; ++w) {
      // (x << 1) << (63 − shift) is x << (64 − shift), and 0 when shift is 0.
      out[w] = (src[w] >> shift) | ((src[w + 1] << 1) << (63 - shift));
    }
    if ((count & 63) != 0) out[words - 1] &= (std::uint64_t{1} << (count & 63)) - 1;
    pos_ += count;
  }

  // A position in the draw sequence: `pos` draws past the serial state
  // `base`. Tell() names the next draw; adding to `pos` names later ones.
  struct Cursor {
    Rng base;
    std::int64_t pos = 0;
  };
  [[nodiscard]] Cursor Tell() const {
    return pos_ == kBlockDraws ? Cursor{next_base_, 0} : Cursor{base_, pos_};
  }
  // The serial generator at `cursor`: the state ResampleSlot(Rng&) would
  // hold there. Jumps lane by lane (kLaneDraws draws each) and steps the
  // rest: for checkpoints and rewinds, not for every slot.
  [[nodiscard]] static Rng StateAt(const Cursor& cursor);
  // The serial generator after every consumed draw.
  [[nodiscard]] Rng State() const { return StateAt(Tell()); }
  // Moves the read position to `cursor` (on this stream's sequence),
  // keeping the thresholds: the draws from there on are handed out again.
  void Seek(const Cursor& cursor);
  // Re-anchors the stream at `rng`, dropping the lookahead.
  void Restore(const Rng& rng) { Seek({rng, 0}); }

  // Refills before a stream asks for a helper: a run that draws fewer
  // blocks never starts a thread.
  static constexpr std::int32_t kRefillsBeforeHelper = 4;

 private:
  class Lookahead;  // the helper thread and its ring (activity_stream.cc)
  friend bool internal::DrawingAhead(const ActivityStream& stream);
  friend std::int64_t internal::HelperBlocks(const ActivityStream& stream);

  static constexpr std::int32_t kBlockWords = kBlockDraws / 64;
  // One spare word so a 64-bit read at any offset stays in bounds.
  static constexpr std::int32_t kPlaneWords = kBlockWords + 1;
  using PlaneArray = std::array<std::array<std::uint64_t, kPlaneWords>, 2>;

  void ChangeThresholds(std::uint64_t plane0, std::uint64_t plane1);
  // Take for a run that does not fit in the current block, or before the
  // first block: refills as it goes.
  void TakeAcrossBlocks(std::int32_t count, std::uint64_t* out);
  // Starts the next block at next_base_: takes it from the helper when it
  // is ready, draws it inline otherwise.
  void Refill();
  // (Re)computes the block at base_ with the current thresholds.
  void Fill();
  // Points the helper at next_base_ under the current thresholds, dropping
  // whatever it drew before.
  void RestartLookahead();

  int width_;
  std::uint64_t thresholds_[2] = {0, 0};
  bool two_planes_ = false;
  Rng base_;       // serial state at the block's first draw
  Rng next_base_;  // serial state after the block's last draw
  // Draws consumed from the block; kBlockDraws also before the first block.
  std::int32_t pos_ = kBlockDraws;
  PlaneArray planes_{};
  // Set from internal::ForceLookaheadForTesting when the stream is built.
  bool force_lookahead_;
  std::int32_t refills_ = 0;  // inline refills while no helper runs
  std::int64_t helper_blocks_ = 0;
  std::unique_ptr<Lookahead> lookahead_;  // null until a helper starts
};

namespace internal {

// Makes every stream built afterwards start its helper at its first
// refill, without a permit from the spare-thread budget; false restores
// the budgeted start for streams built afterwards. For tests that check the
// helper's blocks against inline ones.
void ForceLookaheadForTesting(bool on);

// ForceLookaheadForTesting(true) for its lifetime, so a test that throws
// leaves no later test forced.
class ScopedForceLookaheadForTesting {
 public:
  ScopedForceLookaheadForTesting() { ForceLookaheadForTesting(true); }
  ~ScopedForceLookaheadForTesting() { ForceLookaheadForTesting(false); }
  ScopedForceLookaheadForTesting(const ScopedForceLookaheadForTesting&) = delete;
  ScopedForceLookaheadForTesting& operator=(const ScopedForceLookaheadForTesting&) = delete;
};

}  // namespace internal

}  // namespace crn::pu

#endif  // CRN_PU_ACTIVITY_STREAM_H_
