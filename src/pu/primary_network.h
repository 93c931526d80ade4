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

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/spatial_grid.h"
#include "geom/vec2.h"
#include "sim/time.h"

namespace crn::sim {
class StateReader;
class StateWriter;
}  // namespace crn::sim

namespace crn::pu {

class ActivityStream;

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

  // Static spatial index over PU positions; SUs use it once to precompute
  // "PUs within my carrier-sensing range".
  [[nodiscard]] const geom::SpatialGrid& grid() const { return grid_; }

  // Re-samples every PU's activity for the slot starting now. Activity
  // randomness comes from `rng` (a dedicated stream owned by the caller),
  // one serial draw at a time.
  void ResampleSlot(Rng& rng);
  // The same slot drawn from a lookahead stream (pu/activity_stream.h): the
  // same draws in the same order, so the activity and the stream's State()
  // match ResampleSlot(Rng&) bit for bit.
  void ResampleSlot(ActivityStream& stream);

  // Fault-injection hook (PU activity perturbation): replaces the per-slot
  // activity p_t from the next ResampleSlot() on. Pass the original value
  // back to end the perturbation window. Markov burst lengths are kept; only
  // the stationary target moves.
  void OverrideActivity(double activity);

  [[nodiscard]] bool IsActive(PuId id) const {
    return ((activity_mask_[static_cast<std::size_t>(id) >> 6] >> (id & 63)) & 1) != 0;
  }
  [[nodiscard]] std::int32_t active_count() const { return active_count_; }
  // Active PU ids in ascending order. Built on the first call in a slot:
  // the slot boundary itself only needs the mask and the count.
  [[nodiscard]] const std::vector<PuId>& active_transmitters() const;
  // Per-slot activity as a bitmask (bit id = IsActive(id)), ⌈N/64⌉ words;
  // the only record of which PUs are active. Carrier-sensing hot loops
  // intersect it with precomputed "PUs near me" masks instead of walking id
  // lists (collection_mac.cc).
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
  // fault-overridden) activity target. Positions and the spatial grid are
  // not serialized — the restore path reconstructs the network from the
  // scenario first, then loads this state on top.
  void SaveState(sim::StateWriter& writer) const;
  void LoadState(sim::StateReader& reader);

 private:
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar);

  // One slot of the activity process, drawing through `draws` (the serial
  // generator or the lookahead stream; see primary_network.cc).
  template <typename Draws>
  void Resample(Draws& draws);
  // Recounts the mask and invalidates the active list.
  void NoteMaskChanged();

  PrimaryConfig config_;
  std::vector<geom::Vec2> positions_;
  geom::SpatialGrid grid_;
  std::vector<std::uint64_t> activity_mask_;
  std::int32_t active_count_ = 0;
  mutable std::vector<PuId> active_list_;
  mutable bool active_list_valid_ = true;
  std::vector<geom::Vec2> receiver_;
  std::int64_t slots_sampled_ = 0;
  std::int64_t activations_total_ = 0;
};

}  // namespace crn::pu

#endif  // CRN_PU_PRIMARY_NETWORK_H_
