#include "pu/primary_network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "geom/deployment.h"
#include "pu/activity_stream.h"
#include "sim/checkpoint.h"

namespace crn::pu {

const char* ToString(ActivityProcess process) {
  switch (process) {
    case ActivityProcess::kIid:
      return "iid";
    case ActivityProcess::kMarkov:
      return "markov";
  }
  return "unknown";
}

bool MarkovReaches(double activity, double mean_burst_slots) {
  return activity >= 1.0 || activity / (mean_burst_slots * (1.0 - activity)) <= 1.0;
}

PrimaryNetwork::PrimaryNetwork(const PrimaryConfig& config, geom::Aabb area,
                               Rng deployment_rng)
    : PrimaryNetwork(config, area,
                     geom::UniformDeployment(config.count, area, deployment_rng)) {}

PrimaryNetwork::PrimaryNetwork(const PrimaryConfig& config, geom::Aabb area,
                               std::vector<geom::Vec2> positions)
    : config_(config),
      positions_(std::move(positions)),
      area_(area) {
  CRN_CHECK(config.power > 0.0) << "P_p=" << config.power;
  CRN_CHECK(config.radius > 0.0) << "R=" << config.radius;
  CRN_CHECK(config.activity >= 0.0 && config.activity <= 1.0)
      << "p_t=" << config.activity;
  CRN_CHECK(config.slot > 0) << "slot=" << config.slot
                             << " ns: the PU slot duration must be positive";
  if (config.process == ActivityProcess::kMarkov && config.activity < 1.0) {
    CRN_CHECK(config.mean_burst_slots >= 1.0)
        << "mean_burst_slots=" << config.mean_burst_slots;
    CRN_CHECK(MarkovReaches(config.activity, config.mean_burst_slots))
        << "activity " << config.activity << " unreachable with mean burst "
        << config.mean_burst_slots << " (idle->active probability exceeds 1)";
  }
  CRN_CHECK(static_cast<std::int32_t>(positions_.size()) == config.count)
      << positions_.size() << " positions for N=" << config.count;
  activity_mask_.assign((positions_.size() + 63) / 64, 0);
  receiver_.assign(positions_.size(), geom::Vec2{});
}

namespace {

// A Bernoulli(p) draw as the generator takes it: p ≤ 0 and p ≥ 1 consume no
// draw (Rng::Bernoulli returns early); otherwise the draw's bit under the
// integer threshold decides.
struct Bernoulli {
  explicit Bernoulli(double p)
      : draws(p > 0.0 && p < 1.0),
        pinned(p >= 1.0),
        threshold(draws ? Rng::BernoulliThreshold(p) : 0) {}
  bool draws;
  bool pinned;  // the outcome when no draw is taken
  std::uint64_t threshold;
};

// The serial draw source: one generator step per draw, on a local copy of
// the caller's generator (mask stores would otherwise force a reload of the
// Rng state on every draw, since they may alias it).
struct SerialDraws {
  Rng rng;
  std::uint64_t threshold[2] = {0, 0};

  void Bits(std::uint64_t t, PuId n, std::uint64_t* mask) {
    std::uint64_t word = 0;
    for (PuId id = 0; id < n; ++id) {
      word |= static_cast<std::uint64_t>((rng() >> 11) < t) << (id & 63);
      if ((id & 63) == 63) {
        mask[id >> 6] = word;
        word = 0;
      }
    }
    if ((n & 63) != 0) mask[n >> 6] = word;
  }
  void SetThresholds(std::uint64_t plane0, std::uint64_t plane1) {
    threshold[0] = plane0;
    threshold[1] = plane1;
  }
  bool Next(int plane) { return (rng() >> 11) < threshold[plane]; }
};

// The lookahead source: the same draws, read from precomputed bit blocks.
struct StreamDraws {
  ActivityStream& stream;

  void Bits(std::uint64_t t, PuId n, std::uint64_t* mask) {
    stream.SetThresholds(t, t);
    stream.Take(n, mask);
  }
  void SetThresholds(std::uint64_t plane0, std::uint64_t plane1) {
    stream.SetThresholds(plane0, plane1);
  }
  bool Next(int plane) { return stream.Next(plane); }
};

// Two-state chain with stationary probability p_t of being active:
//   P(active -> idle)  = 1/L                    (mean burst L slots)
//   P(idle  -> active) = p_t / (L (1 - p_t))    (stationarity)
// Degenerate duty cycles pin the chain to one state.
double TurnOffProbability(const PrimaryConfig& config) {
  return config.activity >= 1.0 ? 0.0 : 1.0 / config.mean_burst_slots;
}
double TurnOnProbability(const PrimaryConfig& config) {
  const double p = config.activity;
  return p >= 1.0 ? 1.0 : p * TurnOffProbability(config) / (1.0 - p);
}

// The draws of one slot of the activity process, fixed while the activity
// target is: computed once per window.
struct SlotLaw {
  explicit SlotLaw(const PrimaryConfig& config)
      : markov(config.process == ActivityProcess::kMarkov),
        iid(config.activity),
        turn_off(TurnOffProbability(config)),
        turn_on(TurnOnProbability(config)) {}
  bool markov;
  Bernoulli iid;  // every slot of kIid, and the chain's first slot
  Bernoulli turn_off;
  Bernoulli turn_on;
};

// One slot of the activity process into `row` (`words` words for `n` PUs),
// following `prev` (the slot before; may alias `row`), drawing through
// `draws`. `first` marks the run's first slot. Returns the draws taken.
template <typename Draws>
std::int64_t DrawSlot(Draws& draws, const SlotLaw& law, bool first, PuId n,
                      std::size_t words, const std::uint64_t* prev, std::uint64_t* row) {
  if (!law.markov || first) {
    // Every PU takes one Bernoulli(p_t) draw, in id order. This is also the
    // Markov chain's first slot, which starts from the stationary
    // distribution.
    if (law.iid.draws) {
      draws.Bits(law.iid.threshold, n, row);
      return n;
    }
    const std::uint64_t fill = law.iid.pinned ? ~std::uint64_t{0} : 0;
    for (std::size_t w = 0; w < words; ++w) row[w] = fill;
    if ((n & 63) != 0) row[n >> 6] &= (std::uint64_t{1} << (n & 63)) - 1;
    return 0;
  }
  // Idle PUs draw on plane 0, active PUs on plane 1; a PU whose probability
  // is 0 or 1 draws nothing (with L = 1 every active PU turns idle without a
  // draw).
  if (row != prev) std::copy(prev, prev + words, row);
  const Bernoulli& turn_on = law.turn_on;
  const Bernoulli& turn_off = law.turn_off;
  if (turn_on.draws || turn_off.draws) {
    // A plane no PU draws on copies the other's threshold, so the stream
    // computes one plane only.
    draws.SetThresholds(turn_on.draws ? turn_on.threshold : turn_off.threshold,
                        turn_off.draws ? turn_off.threshold : turn_on.threshold);
  }
  std::int64_t taken = 0;
  for (PuId id = 0; id < n; ++id) {
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    std::uint64_t& word = row[id >> 6];
    bool is_active;
    if ((word & bit) != 0) {
      taken += turn_off.draws ? 1 : 0;
      is_active = !(turn_off.draws ? draws.Next(1) : turn_off.pinned);
    } else {
      taken += turn_on.draws ? 1 : 0;
      is_active = turn_on.draws ? draws.Next(0) : turn_on.pinned;
    }
    word = is_active ? word | bit : word & ~bit;
  }
  return taken;
}

// One step of the 64×64 bit transpose below: swaps the off-diagonal J×J
// blocks of every 2J×2J diagonal block. `mask` selects a block's low
// columns.
template <int J>
void TransposeStep(std::uint64_t (&a)[64], std::uint64_t mask) {
  for (int base = 0; base < 64; base += 2 * J) {
    for (int k = base; k < base + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & mask;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
  }
}

// In-place transpose of a 64×64 bit matrix, row r = a[r], column c = bit c:
// afterwards bit c of a[r] is what bit r of a[c] was.
void Transpose64(std::uint64_t (&a)[64]) {
  TransposeStep<32>(a, 0x00000000FFFFFFFFULL);
  TransposeStep<16>(a, 0x0000FFFF0000FFFFULL);
  TransposeStep<8>(a, 0x00FF00FF00FF00FFULL);
  TransposeStep<4>(a, 0x0F0F0F0F0F0F0F0FULL);
  TransposeStep<2>(a, 0x3333333333333333ULL);
  TransposeStep<1>(a, 0x5555555555555555ULL);
}

}  // namespace

void PrimaryNetwork::ResampleSlot(Rng& rng) {
  SerialDraws draws{rng};
  DrawSlot(draws, SlotLaw(config_), slots_sampled_ == 0, count(), activity_mask_.size(),
           activity_mask_.data(), activity_mask_.data());
  rng = draws.rng;
  SetSingleSlotWindow();
  CountSlot();
}

void PrimaryNetwork::ResampleSlot(ActivityStream& stream, std::int64_t slots_left) {
  CRN_DCHECK(slots_left >= 1);
  if (redraw_) {
    // Slots drawn ahead under the old activity target: rewind and redraw.
    redraw_ = false;
    if (window_from_stream_ && window_pos_ < window_len_) {
      stream.Seek(ConsumedCursor());
      window_len_ = window_pos_;
    }
  }
  if (window_pos_ == window_len_) {
    DrawWindow(stream, static_cast<std::int32_t>(
                           std::min<std::int64_t>(kWindowSlots, slots_left)));
  }
  const std::size_t words = activity_mask_.size();
  const std::uint64_t* row = rows_.data() + static_cast<std::size_t>(window_pos_) * words;
  std::copy(row, row + words, activity_mask_.begin());
  ++window_pos_;
  CountSlot();
}

void PrimaryNetwork::DrawWindow(ActivityStream& stream, std::int32_t slots) {
  const std::size_t words = activity_mask_.size();
  if (rows_.empty()) {
    rows_.resize(static_cast<std::size_t>(kWindowSlots) * words);
    pu_words_.resize(positions_.size());
  }
  const PuId n = count();
  window_start_ = stream.Tell();
  StreamDraws draws{stream};
  const SlotLaw law(config_);
  const std::uint64_t* prev = activity_mask_.data();
  std::int64_t taken = 0;
  for (std::int32_t s = 0; s < slots; ++s) {
    std::uint64_t* row = rows_.data() + static_cast<std::size_t>(s) * words;
    taken += DrawSlot(draws, law, slots_sampled_ + s == 0, n, words, prev, row);
    window_draws_[static_cast<std::size_t>(s) + 1] = taken;
    prev = row;
  }

  // PU-major words, 64 PUs per transpose; slots past the window read zero.
  std::uint64_t block[64] = {};
  for (std::size_t w = 0; w < words; ++w) {
    for (std::int32_t s = 0; s < 64; ++s) {
      block[s] = s < slots ? rows_[static_cast<std::size_t>(s) * words + w] : 0;
    }
    Transpose64(block);
    const PuId first = static_cast<PuId>(w * 64);
    const PuId last = std::min<PuId>(n, first + 64);
    for (PuId id = first; id < last; ++id) pu_words_[id] = block[id - first];
  }
  window_len_ = slots;
  window_pos_ = 0;
  window_from_stream_ = true;
  ++window_epoch_;
}

void PrimaryNetwork::SetSingleSlotWindow() {
  window_len_ = 1;
  window_pos_ = 1;
  window_from_stream_ = false;
  redraw_ = false;
  ++window_epoch_;
}

Rng PrimaryNetwork::ConsumedState(const ActivityStream& stream) const {
  return window_from_stream_ ? ActivityStream::StateAt(ConsumedCursor()) : stream.State();
}

ActivityStream::Cursor PrimaryNetwork::ConsumedCursor() const {
  return {window_start_.base,
          window_start_.pos + window_draws_[static_cast<std::size_t>(window_pos_)]};
}

void PrimaryNetwork::CountSlot() {
  NoteMaskChanged();
  activations_total_ += active_count_;
  ++slots_sampled_;
}

void PrimaryNetwork::NoteMaskChanged() {
  std::int32_t actives = 0;
  for (const std::uint64_t word : activity_mask_) actives += __builtin_popcountll(word);
  active_count_ = actives;
  active_list_valid_ = false;
}

const std::vector<PuId>& PrimaryNetwork::active_transmitters() const {
  if (active_list_valid_) return active_list_;
  active_list_.resize(static_cast<std::size_t>(active_count_));
  PuId* list = active_list_.data();
  std::size_t actives = 0;
  for (std::size_t w = 0; w < activity_mask_.size(); ++w) {
    for (std::uint64_t bits = activity_mask_[w]; bits != 0; bits &= bits - 1) {
      list[actives++] = static_cast<PuId>(w * 64) + __builtin_ctzll(bits);
    }
  }
  active_list_valid_ = true;
  return active_list_;
}

void PrimaryNetwork::OverrideActivity(double activity) {
  CRN_CHECK(activity >= 0.0 && activity <= 1.0) << "p_t=" << activity;
  if (config_.process == ActivityProcess::kMarkov) {
    CRN_CHECK(MarkovReaches(activity, config_.mean_burst_slots))
        << "activity " << activity << " unreachable with mean burst "
        << config_.mean_burst_slots << " (idle->active probability exceeds 1)";
  }
  config_.activity = activity;
  redraw_ = true;
}

void PrimaryNetwork::SaveState(sim::StateWriter& writer) const {
  Transfer(*this, writer);
}

void PrimaryNetwork::LoadState(sim::StateReader& reader) {
  Transfer(*this, reader);
}

template <class Self, class Ar>
void PrimaryNetwork::Transfer(Self& self, Ar& ar) {
  if (!ar.BeginSection("pu")) return;
  // config_.activity may carry a fault-injection override at checkpoint
  // time; the restored network must resample with the same target.
  ar.Io(self.config_.activity);
  ar.Io(self.slots_sampled_);
  ar.Io(self.activations_total_);
  // Activity travels as one byte per PU.
  ar.FixedCount(static_cast<std::size_t>(self.count()));
  std::vector<std::uint64_t> mask(self.activity_mask_.size(), 0);
  for (PuId id = 0; id < self.count(); ++id) {
    std::uint8_t active = self.IsActive(id) ? 1 : 0;
    ar.Io(active);
    if (active != 0) mask[id >> 6] |= std::uint64_t{1} << (id & 63);
  }
  // Receiver draws are lazy (audit-only), but the audit stride may span the
  // checkpoint boundary, so the positions must ride along bit-exactly.
  for (auto& receiver : self.receiver_) {
    ar.Io(receiver.x);
    ar.Io(receiver.y);
  }
  ar.EndSection();
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;
    self.activity_mask_ = std::move(mask);
    self.NoteMaskChanged();
    self.SetSingleSlotWindow();
  }
}

void PrimaryNetwork::SampleReceiverPositions(Rng& rng) {
  for (PuId id : active_transmitters()) {
    // Uniform receiver in the disk of radius R (sqrt trick).
    const double rho = config_.radius * std::sqrt(rng.UniformDouble());
    const double theta = rng.UniformDouble(0.0, 2.0 * M_PI);
    receiver_[id] = {positions_[id].x + rho * std::cos(theta),
                     positions_[id].y + rho * std::sin(theta)};
  }
}

}  // namespace crn::pu
