// Primary network model (§III): N i.i.d. primary users (PUs) over the
// deployment area; time is slotted with duration τ, and in each slot every
// PU independently transmits with probability p_t (the paper's generalized
// probabilistic activity model). An active PU occupies the spectrum for the
// whole slot and transmits toward a receiver drawn uniformly within its
// transmission radius R (Lemma 2 only assumes D(S_i, S_i') ≤ R).
//
// The class owns PU positions and per-slot activity state; the MAC layer
// queries activity for carrier sensing and the audit layer uses the
// receiver positions to verify SUs never cause unacceptable interference.
#ifndef CRN_PU_PRIMARY_NETWORK_H_
#define CRN_PU_PRIMARY_NETWORK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/vec2.h"
#include "pu/activity_stream.h"
#include "sim/time.h"

namespace crn::sim {
class StateReader;
class StateWriter;
}  // namespace crn::sim

namespace crn::pu {

using PuId = std::int32_t;

// Per-slot activity process. The paper uses "a generalized probabilistic
// model ... given a specific probabilistic distribution ... p_t can be
// determined accordingly" (§III); we provide the two standard instances:
//
//   kIid    — every slot is an independent Bernoulli(p_t) draw (the model
//             the paper's evaluation uses);
//   kMarkov — a two-state (Gilbert) on/off chain with the *same* stationary
//             activity p_t but tunable burstiness: active periods last
//             Geometric(mean_burst_slots) slots. Burstier primaries leave
//             longer free runs and longer busy runs at identical duty
//             cycle, reshaping waiting-time tails (ablation A6).
enum class ActivityProcess : std::uint8_t {
  kIid,
  kMarkov,
};

const char* ToString(ActivityProcess process);

// Whether the Markov chain with this mean burst has stationary activity p_t:
// its idle->active probability p_t / (burst · (1 − p_t)) must be at most 1,
// and p_t = 1 is the saturated chain.
bool MarkovReaches(double activity, double mean_burst_slots);

struct PrimaryConfig {
  std::int32_t count = 400;       // N
  double power = 10.0;            // P_p
  double radius = 10.0;           // R, max transmission radius
  double activity = 0.3;          // p_t, stationary transmit probability
  sim::TimeNs slot = sim::kMillisecond;  // τ
  ActivityProcess process = ActivityProcess::kIid;
  double mean_burst_slots = 4.0;  // kMarkov: mean active-run length
};

class PrimaryNetwork {
 public:
  // Deploys `config.count` PUs uniformly in `area` using `rng`.
  PrimaryNetwork(const PrimaryConfig& config, geom::Aabb area, Rng deployment_rng);

  // Uses caller-supplied positions (tests, crafted scenarios).
  PrimaryNetwork(const PrimaryConfig& config, geom::Aabb area,
                 std::vector<geom::Vec2> positions);

  [[nodiscard]] const PrimaryConfig& config() const { return config_; }
  [[nodiscard]] std::int32_t count() const {
    return static_cast<std::int32_t>(positions_.size());
  }
  [[nodiscard]] geom::Vec2 position(PuId id) const { return positions_[id]; }
  [[nodiscard]] const std::vector<geom::Vec2>& positions() const { return positions_; }

  // The deployment area the PUs were placed in.
  [[nodiscard]] geom::Aabb area() const { return area_; }

  // Re-samples every PU's activity for the slot starting now. Activity
  // randomness comes from `rng` (a dedicated stream owned by the caller),
  // one serial draw at a time. The window (below) becomes this one slot.
  void ResampleSlot(Rng& rng);
  // The same slot read from the activity window, which draws from the
  // lookahead stream (pu/activity_stream.h) up to kWindowSlots slots at a
  // time: the same draws in the same order, so every slot's activity
  // matches ResampleSlot(Rng&) bit for bit, and ConsumedState(stream) is
  // the serial generator after this slot. `slots_left` counts the slots the
  // caller can still sample, this one included; the window draws no slot
  // beyond them. A network reads one stream for its whole life.
  void ResampleSlot(ActivityStream& stream, std::int64_t slots_left = kWindowSlots);

  // Fault-injection hook (PU activity perturbation): replaces the per-slot
  // activity p_t from the next ResampleSlot() on. Pass the original value
  // back to end the perturbation window. Markov burst lengths are kept; only
  // the stationary target moves. Window slots drawn ahead with the old
  // target are dropped: the next ResampleSlot rewinds the stream to them
  // and redraws.
  void OverrideActivity(double activity);

  // --- the activity window ---------------------------------------------
  // ResampleSlot(ActivityStream&) draws up to kWindowSlots slots at once and
  // hands them out one per call. The window is kept in two layouts: one
  // activity mask per slot (copied into activity_mask() when its slot
  // starts) and one word per PU, bit s of window_word(p) saying whether p is
  // active in window slot s, built with 64×64 bit transposes. Carrier
  // sensing reads the PU-major words: an SU ORs its nearby PUs' words once
  // per window (window_epoch() changes whenever the words do) and shifts
  // the result by window_slot() in every slot of it.
  // A window of one slot (after ResampleSlot(Rng&), a load, or before the
  // first slot) reads its words off the activity mask.
  static constexpr std::int32_t kWindowSlots = 64;
  [[nodiscard]] std::uint64_t window_word(PuId id) const {
    return window_from_stream_ ? pu_words_[id] : (IsActive(id) ? 1 : 0);
  }
  // The current slot's bit in the window words.
  [[nodiscard]] std::int32_t window_slot() const { return window_pos_ - 1; }
  [[nodiscard]] std::uint64_t window_epoch() const { return window_epoch_; }
  // The serial generator after the current slot: what `stream` (the one
  // ResampleSlot reads) would hold had it drawn no slot ahead. Checkpoints
  // record this, so a blob does not depend on the window.
  [[nodiscard]] Rng ConsumedState(const ActivityStream& stream) const;

  [[nodiscard]] bool IsActive(PuId id) const {
    return ((activity_mask_[static_cast<std::size_t>(id) >> 6] >> (id & 63)) & 1) != 0;
  }
  [[nodiscard]] std::int32_t active_count() const { return active_count_; }
  // Active PU ids in ascending order. Built on the first call in a slot:
  // the slot boundary itself only needs the mask and the count.
  [[nodiscard]] const std::vector<PuId>& active_transmitters() const;
  // Per-slot activity as a bitmask (bit id = IsActive(id)), ⌈N/64⌉ words.
  [[nodiscard]] const std::vector<std::uint64_t>& activity_mask() const {
    return activity_mask_;
  }

  // Draws a fresh receiver (uniform in the disk of radius R, per Lemma 2's
  // D(S_i, S_i') ≤ R) for every currently active PU. Lazy by design: only
  // the PU-protection audit needs receivers, so per-slot runs skip the trig
  // entirely; call once per audited slot with a dedicated stream.
  void SampleReceiverPositions(Rng& rng);
  // Receiver of the PU's current transmission; valid only while IsActive(id)
  // and after SampleReceiverPositions() for this slot.
  [[nodiscard]] geom::Vec2 receiver_position(PuId id) const { return receiver_[id]; }

  // Cumulative statistics (for tests validating the Bernoulli process).
  [[nodiscard]] std::int64_t slots_sampled() const { return slots_sampled_; }
  [[nodiscard]] std::int64_t activations_total() const { return activations_total_; }

  // Checkpoint protocol (sim/checkpoint.h, section "pu"): per-slot activity
  // state, receiver draws, cumulative counters, and the (possibly
  // fault-overridden) activity target. Positions are not serialized — the
  // restore path reconstructs the network from the scenario first, then
  // loads this state on top. The window is not saved either: a load leaves
  // the loaded slot as a one-slot window, and the next ResampleSlot draws
  // from the restored stream.
  void SaveState(sim::StateWriter& writer) const;
  void LoadState(sim::StateReader& reader);

 private:
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar);

  // Draws the next `slots` slots into the window and transposes them.
  void DrawWindow(ActivityStream& stream, std::int32_t slots);
  // The stream position after the current slot of a window drawn from it.
  [[nodiscard]] ActivityStream::Cursor ConsumedCursor() const;
  // Makes the current mask a one-slot window (serial draws and loads),
  // whose words window_word() reads off the mask.
  void SetSingleSlotWindow();
  // Recounts the mask and invalidates the active list.
  void NoteMaskChanged();
  // Books the slot now in activity_mask_.
  void CountSlot();

  PrimaryConfig config_;
  std::vector<geom::Vec2> positions_;
  geom::Aabb area_;
  std::vector<std::uint64_t> activity_mask_;
  // The window: window_len_ slots drawn, window_pos_ of them handed out.
  // For windows drawn from a stream (allocated by the first): rows_ holds
  // kWindowSlots masks of ⌈N/64⌉ words and pu_words_ the PU-major words.
  // Window slot s starts window_draws_[s] draws past the stream position
  // window_start_ (window_draws_[window_len_]: after the last slot).
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint64_t> pu_words_;
  ActivityStream::Cursor window_start_;
  std::array<std::int64_t, kWindowSlots + 1> window_draws_{};
  std::int32_t window_len_ = 1;
  std::int32_t window_pos_ = 1;
  std::uint64_t window_epoch_ = 0;
  bool window_from_stream_ = false;
  bool redraw_ = false;  // OverrideActivity since the window was drawn
  std::int32_t active_count_ = 0;
  mutable std::vector<PuId> active_list_;
  mutable bool active_list_valid_ = true;
  std::vector<geom::Vec2> receiver_;
  std::int64_t slots_sampled_ = 0;
  std::int64_t activations_total_ = 0;
};

}  // namespace crn::pu

#endif  // CRN_PU_PRIMARY_NETWORK_H_
