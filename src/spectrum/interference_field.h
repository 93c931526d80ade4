// Interference-field engine: pair-read accounting with event-driven SIR
// reevaluation bookkeeping (DESIGN.md §10).
//
// Deployments are static, so the received power P·d^{-α} of every ordered
// (transmitter, receiver) pair is a run constant. The field does not
// store those gains: a row of doubles per receiving SU costs 80 KB at
// n = 10,000, and reading a cold row is slower than recomputing
// ReceivedPowerSquared over DistanceSquared from positions, which stay in
// cache. PairGainCache keeps one bit per pair instead, recording whether
// the pair was read before, so FieldWork sorts every read into a first
// read (gain_cache_misses, sir_terms_evaluated) or a repeat
// (gain_cache_hits). Every sum runs in one fixed order, so a memo, a skip
// or a resumed sum is bit-identical to summing every term from scratch —
// min-SIR floors, trace digests and all. tests/mac/sir_engine_test.cc
// pins whole runs against the outcomes and work of that from-scratch sum;
// tests/spectrum/interference_field_test.cc checks the gains and the memo
// against a sum computed in the test, and pins the read records.
//
// Epoch counters support the MAC's dirty-set reevaluation:
//  * change_epoch advances on every event that can LOWER an ongoing
//    reception's SIR (an SU transmission starting, the active-PU set
//    changing). A transmission refloored at epoch E can skip any later
//    refloor still at epoch E: its interferer set has only shrunk since
//    (ends and aborts remove terms; all terms are nonnegative), so its SIR
//    only rose and min(min_sir, sir_now) == min_sir exactly — the skip is
//    bit-exact, not approximate.
//  * pu_epoch advances only when the active-PU set changes. The field sums
//    PU interference first (ascending PU id, the active-list order) and
//    memoizes that prefix per receiver (PuInterference); while pu_epoch is
//    unchanged the memo is the exact same prefix sum a recomputation would
//    produce — and ADDC's sibling serialization makes same-receiver,
//    same-slot evaluations the dominant pattern.
// NotePuSample compares the freshly sampled activity mask against the
// previous slot's and leaves both epochs alone when the set is unchanged —
// at low activity most slots change nothing and whole refloors vanish.
//
// Lane mode (UseLanes; DESIGN.md §10, "Deciding SU receptions from a lane
// sum"): a run that records no SIR floor sums the PU prefix in SIMD lanes
// with spectrum/lane_sum.h, the kernel the invariant auditor's Lemma 2
// check uses (DESIGN.md §7), over a padded copy of the active PUs'
// positions refilled once per pu_epoch (LanePuInterference). The memo then
// holds that lane sum, and no read is recorded. The lane sum differs from
// the in-order sum only inside lane_sum::Margin's proven window, so the MAC
// decides each reception's verdict from the window and recomputes the
// in-order sum (InOrderPuInterference, unmemoized) only when the window
// straddles η_s.
//
// All work is tallied in FieldWork; the counts are pure functions of
// (scenario, seed), so perf regressions are caught by exact counter pins
// (WorkCounterPinTest, SirFieldPinTest) instead of wall-clock thresholds.
#ifndef CRN_SPECTRUM_INTERFERENCE_FIELD_H_
#define CRN_SPECTRUM_INTERFERENCE_FIELD_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "geom/vec2.h"
#include "sim/checkpoint.h"
#include "spectrum/interference.h"
#include "spectrum/lane_sum.h"

namespace crn::spectrum {

// Deterministic work tally for SIR evaluation. Every field is an exact,
// seed-stable operation count (never a wall-clock quantity); RunWithNextHops
// exports them as perf.* counters when a MetricsRegistry is attached.
struct FieldWork {
  std::int64_t sir_evaluations = 0;     // full SIR computations performed
  // Interference terms charged as computed: only a pair's first read (a
  // gain_cache_miss). Every gain is recomputed on every read, so this counts
  // distinct pairs read, not arithmetic done or saved. WorkCounterPinTest
  // pins this count, with the other seven, on every throughput rung.
  std::int64_t sir_terms_evaluated = 0;
  std::int64_t gain_cache_hits = 0;     // reads of a pair read before
  std::int64_t gain_cache_misses = 0;   // first reads of a pair
  std::int64_t reeval_skipped = 0;      // refloors skipped via change_epoch
  std::int64_t pu_partials_reused = 0;  // per-receiver PU sums reused via pu_epoch
  std::int64_t su_resumes = 0;          // append-incremental interference resumes
  std::int64_t bound_skips = 0;         // refloors skipped via the SIR lower bound
};

// P·d^{-α} for every ordered (tx, rx) pair between two static position
// sets, recomputed on every read, plus a receiver-major record of which
// pairs were read: one bit per transmitter, in a row that materializes on
// the receiver's first read — only nodes that actually receive (relays,
// parents) ever pay for one.
class PairGainCache {
 public:
  PairGainCache(PathLoss loss, double tx_power, std::vector<geom::Vec2> tx_positions,
                std::vector<geom::Vec2> rx_positions)
      : loss_(loss),
        power_(tx_power),
        tx_(std::move(tx_positions)),
        rx_(std::move(rx_positions)),
        rows_(rx_.size()) {
    CRN_CHECK(power_ > 0.0) << "tx power must be positive, got " << power_;
  }

  // One read of the pair: a miss on its first read, a hit after.
  [[nodiscard]] double Gain(std::int32_t tx, std::int32_t rx, FieldWork& work) {
    std::uint64_t& word = Row(rx)[static_cast<std::size_t>(tx) >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (tx & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++work.gain_cache_misses;
      ++work.sir_terms_evaluated;
    } else {
      ++work.gain_cache_hits;
    }
    return Direct(tx, rx);
  }

  // Accounts one read of (tx, rx) for every tx whose bit is set in `mask`
  // (⌈tx count/64⌉ words), exactly as that many Gain calls would, one word
  // at a time. An empty mask reads nothing and materializes no row.
  void NoteReads(std::int32_t rx, const std::vector<std::uint64_t>& mask,
                 FieldWork& work) {
    CRN_DCHECK(mask.size() == WordsPerRow());
    std::size_t w = 0;
    while (w < mask.size() && mask[w] == 0) ++w;
    if (w == mask.size()) return;
    std::vector<std::uint64_t>& row = Row(rx);
    std::int64_t misses = 0;
    std::int64_t hits = 0;
    for (; w < mask.size(); ++w) {
      misses += __builtin_popcountll(mask[w] & ~row[w]);
      hits += __builtin_popcountll(mask[w] & row[w]);
      row[w] |= mask[w];
    }
    work.gain_cache_misses += misses;
    work.sir_terms_evaluated += misses;
    work.gain_cache_hits += hits;
  }

  // The gain itself: what every read returns.
  [[nodiscard]] double Direct(std::int32_t tx, std::int32_t rx) const {
    return loss_.ReceivedPowerSquared(
        power_, geom::DistanceSquared(tx_[static_cast<std::size_t>(tx)],
                                      rx_[static_cast<std::size_t>(rx)]));
  }

  [[nodiscard]] geom::Vec2 tx_position(std::int32_t tx) const {
    return tx_[static_cast<std::size_t>(tx)];
  }

  // Σ P·d^{-α} at `rx` over the padded lane copy (xs, ys) of transmitter
  // positions, summed in `width` lanes (spectrum/lane_sum.h).
  [[nodiscard]] double LaneSum(const std::vector<double>& xs,
                               const std::vector<double>& ys, std::int32_t rx,
                               int width) const {
    return lane_sum::ApproxInterference(xs.data(), ys.data(), xs.size(),
                                        rx_[static_cast<std::size_t>(rx)], power_,
                                        loss_, width);
  }

  [[nodiscard]] std::int64_t allocated_rows() const {
    std::int64_t rows = 0;
    for (const std::vector<std::uint64_t>& row : rows_) {
      if (!row.empty()) ++rows;
    }
    return rows;
  }

  // Checkpoint support (inside the caller's open section). Gains are pure
  // functions of the static positions, so only the read records are
  // serialized — which rows exist and which pairs were read — plus an FNV
  // digest of the read pairs' gains. A load rebuilds the records, recomputes
  // those gains through Direct() (the rebuild must not perturb the
  // FieldWork counters) and verifies the digest, proving the restored
  // scenario's positions are the checkpointed run's.
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar) {
    ar.FixedCount(self.rows_.size());
    ar.FixedCount(self.tx_.size());
    std::uint64_t digest = 0xCBF29CE484222325ULL;
    for (std::size_t rx = 0; rx < self.rows_.size() && ar.ok(); ++rx) {
      auto& row = self.rows_[rx];
      bool present = !row.empty();
      ar.Io(present);
      if (!present) continue;
      if constexpr (Ar::kLoading) row.assign(self.WordsPerRow(), 0);
      for (std::size_t tx = 0; tx < self.tx_.size(); ++tx) {
        const std::uint64_t bit = std::uint64_t{1} << (tx & 63);
        bool read = (row[tx >> 6] & bit) != 0;
        ar.Io(read);
        if (!read) continue;
        if constexpr (Ar::kLoading) row[tx >> 6] |= bit;
        const double gain =
            self.Direct(static_cast<std::int32_t>(tx), static_cast<std::int32_t>(rx));
        std::uint64_t bits = 0;
        __builtin_memcpy(&bits, &gain, sizeof bits);
        digest = (digest ^ bits) * 0x100000001B3ULL;
      }
    }
    std::uint64_t saved_digest = digest;
    ar.Io(saved_digest);
    CRN_CHECK(!ar.ok() || saved_digest == digest)
        << "rebuilt gain cache diverges from the checkpoint (digest " << digest
        << " vs saved " << saved_digest
        << ") — the restored scenario's positions differ from the "
           "checkpointed run's";
  }

 private:
  [[nodiscard]] std::size_t WordsPerRow() const { return (tx_.size() + 63) / 64; }

  // Receiver `rx`'s read record, materialized on first use.
  std::vector<std::uint64_t>& Row(std::int32_t rx) {
    std::vector<std::uint64_t>& row = rows_[static_cast<std::size_t>(rx)];
    if (row.empty()) row.assign(WordsPerRow(), 0);
    return row;
  }

  PathLoss loss_;
  double power_;
  std::vector<geom::Vec2> tx_;
  std::vector<geom::Vec2> rx_;
  // rx-major read records, lazily allocated: bit tx of row rx is set once
  // the pair (tx, rx) has been read.
  std::vector<std::vector<std::uint64_t>> rows_;
};

// The per-run interference field: SU→SU and PU→SU gains with their read
// records, plus the epoch counters driving the MAC's dirty-set
// reevaluation. Owns copies of the (static) position sets, so it has no
// lifetime coupling to the MAC's vectors.
class InterferenceField {
 public:
  InterferenceField(PathLoss loss, const std::vector<geom::Vec2>& su_positions,
                    double su_power, const std::vector<geom::Vec2>& pu_positions,
                    double pu_power)
      : su_gains_(loss, su_power, su_positions, su_positions),
        pu_gains_(pu_positions.empty()
                      ? PairGainCache(loss, su_power, {}, su_positions)
                      : PairGainCache(loss, pu_power, pu_positions, su_positions)),
        pu_count_(pu_positions.size()),
        previous_pu_mask_((pu_positions.size() + 63) / 64, 0),
        pu_sum_(su_positions.size(), 0.0),
        pu_sum_epoch_(su_positions.size(), -1) {}

  [[nodiscard]] FieldWork& work() { return work_; }
  [[nodiscard]] const FieldWork& work() const { return work_; }

  // Received power of SU `tx`'s signal at SU `rx`'s position.
  [[nodiscard]] double SuGain(std::int32_t tx, std::int32_t rx) {
    return su_gains_.Gain(tx, rx, work_);
  }

  // Received power of PU `pu`'s signal at SU `rx`'s position.
  [[nodiscard]] double PuGain(std::int32_t pu, std::int32_t rx) {
    return pu_gains_.Gain(pu, rx, work_);
  }

  // SuGain's value without recording the read, for lane mode.
  [[nodiscard]] double SuGainUnrecorded(std::int32_t tx, std::int32_t rx) const {
    return su_gains_.Direct(tx, rx);
  }

  // Lane mode (DESIGN.md §10, "Deciding SU receptions from a lane sum"):
  // from now on the PU sums come from LanePuInterference, in `width` lanes,
  // one of simd::SupportedWidths(). Call once, before the first sum. A
  // lane-mode field records no reads and is never checkpointed.
  void UseLanes(int width) {
    CRN_CHECK(lane_width_ == 0 && width > 0) << "UseLanes(" << width << ") called twice";
    lane_width_ = width;
  }

  // The PU interference at SU `rx` as exact mode sums it: `active_pus` in
  // ascending id order, one add at a time. Records no read, memoizes
  // nothing.
  [[nodiscard]] double InOrderPuInterference(
      std::int32_t rx, const std::vector<std::int32_t>& active_pus) const {
    double sum = 0.0;
    for (const std::int32_t pu : active_pus) sum += pu_gains_.Direct(pu, rx);
    return sum;
  }

  // Aggregate PU interference at SU `rx` from `active_pus` (ascending PU
  // id — the PrimaryNetwork active-list order), whose activity bitmask is
  // `mask`. Accounts the reads a word at a time against `mask` and
  // memoizes the sum per receiver, keyed on pu_epoch: ADDC serializes
  // siblings onto the same parent, so within one slot many evaluations
  // target the same receiver and the memoized double — produced by the
  // identical fixed-order sum — is bit-exact to reuse.
  [[nodiscard]] double PuInterference(std::int32_t rx,
                                      const std::vector<std::int32_t>& active_pus,
                                      const std::vector<std::uint64_t>& mask) {
    CRN_DCHECK(lane_width_ == 0) << "the exact PU sum in a lane-mode field";
    const auto receiver = static_cast<std::size_t>(rx);
    if (pu_sum_epoch_[receiver] == pu_epoch_) {
      ++work_.pu_partials_reused;
      return pu_sum_[receiver];
    }
    CRN_DCHECK(MaskHolds(mask, active_pus))
        << "the activity mask and the active list name different PUs";
    pu_gains_.NoteReads(rx, mask, work_);
    const double sum = InOrderPuInterference(rx, active_pus);
    pu_sum_[receiver] = sum;
    pu_sum_epoch_[receiver] = pu_epoch_;
    return sum;
  }

  // Lane mode: the PU interference at SU `rx` summed in lanes over a
  // padded copy of `active_pus`' positions, refilled at most once per
  // pu_epoch, and memoized per receiver like PuInterference. Records no
  // reads.
  [[nodiscard]] double LanePuInterference(std::int32_t rx,
                                          const std::vector<std::int32_t>& active_pus) {
    CRN_DCHECK(lane_width_ != 0) << "LanePuInterference before UseLanes";
    const auto receiver = static_cast<std::size_t>(rx);
    if (pu_sum_epoch_[receiver] == pu_epoch_) return pu_sum_[receiver];
    if (lane_epoch_ != pu_epoch_) {
      // The active set changes only where pu_epoch does (NotePuSample).
      const std::size_t padded =
          (active_pus.size() + lane_sum::kLanes - 1) / lane_sum::kLanes * lane_sum::kLanes;
      lane_x_.assign(padded, std::numeric_limits<double>::infinity());  // adds 0
      lane_y_.assign(padded, 0.0);
      for (std::size_t i = 0; i < active_pus.size(); ++i) {
        const geom::Vec2 position = pu_gains_.tx_position(active_pus[i]);
        lane_x_[i] = position.x;
        lane_y_[i] = position.y;
      }
      lane_epoch_ = pu_epoch_;
    }
    const double sum = pu_gains_.LaneSum(lane_x_, lane_y_, rx, lane_width_);
    pu_sum_[receiver] = sum;
    pu_sum_epoch_[receiver] = pu_epoch_;
    return sum;
  }

  // Epoch of the last SIR-lowering event. See the header comment for the
  // exact-skip argument.
  [[nodiscard]] std::int64_t change_epoch() const { return change_epoch_; }
  // Epoch of the last active-PU-set change (invalidates PU prefix memos).
  [[nodiscard]] std::int64_t pu_epoch() const { return pu_epoch_; }

  // A new SU transmission went on the air: every ongoing reception gained
  // an interference term.
  void NoteSuInterfererAdded() { ++change_epoch_; }

  // An SU transmission left the air. The MAC removes it from its active
  // list by swap-and-pop, which reorders the list — stored interference
  // sums built over a prefix of the old order can no longer be extended
  // exactly, so this epoch invalidates them. (It does NOT bump
  // change_epoch: a removal can only raise SIRs, which is what makes the
  // refloor skip exact.)
  void NoteSuInterfererRemoved() { ++shrink_epoch_; }

  // Epoch of the last SU-interferer removal (invalidates append-
  // incremental interference memos).
  [[nodiscard]] std::int64_t shrink_epoch() const { return shrink_epoch_; }

  // A slot boundary resampled PU activity; `mask` is the slot's activity
  // bitmask (bit p = PU p active, ⌈N/64⌉ words). Bumps both epochs only when
  // the active set actually differs from the previous slot's. Returns
  // whether it changed.
  bool NotePuSample(const std::vector<std::uint64_t>& mask) {
    if (mask == previous_pu_mask_) return false;
    previous_pu_mask_ = mask;
    ++change_epoch_;
    ++pu_epoch_;
    return true;
  }

  [[nodiscard]] std::int64_t su_rows_allocated() const {
    return su_gains_.allocated_rows();
  }
  [[nodiscard]] std::int64_t pu_rows_allocated() const {
    return pu_gains_.allocated_rows();
  }

  // Checkpoint protocol (sim/checkpoint.h, section "field"): work counters,
  // the three epochs, the previous slot's active PUs (an ascending id list
  // read off the mask), the per-receiver PU-sum memos, and both caches'
  // read records (gains are recomputed and digest-verified, see
  // PairGainCache::Transfer).
  void SaveState(sim::StateWriter& writer) const { Transfer(*this, writer); }
  void LoadState(sim::StateReader& reader) { Transfer(*this, reader); }

  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar) {
    if (!ar.BeginSection("field")) return;
    auto& work = self.work_;
    ar.Io(work.sir_evaluations);
    ar.Io(work.sir_terms_evaluated);
    ar.Io(work.gain_cache_hits);
    ar.Io(work.gain_cache_misses);
    ar.Io(work.reeval_skipped);
    ar.Io(work.pu_partials_reused);
    ar.Io(work.su_resumes);
    ar.Io(work.bound_skips);
    ar.Io(self.change_epoch_);
    ar.Io(self.pu_epoch_);
    ar.Io(self.shrink_epoch_);
    std::vector<std::int32_t> previous;
    for (std::size_t w = 0; w < self.previous_pu_mask_.size(); ++w) {
      for (std::uint64_t bits = self.previous_pu_mask_[w]; bits != 0; bits &= bits - 1) {
        previous.push_back(static_cast<std::int32_t>(w * 64) + __builtin_ctzll(bits));
      }
    }
    ar.Seq(previous);
    ar.FixedCount(self.pu_sum_.size());
    for (std::size_t i = 0; i < self.pu_sum_.size(); ++i) {
      ar.Io(self.pu_sum_[i]);
      ar.Io(self.pu_sum_epoch_[i]);
    }
    PairGainCache::Transfer(self.su_gains_, ar);
    PairGainCache::Transfer(self.pu_gains_, ar);
    ar.EndSection();
    if constexpr (Ar::kLoading) {
      if (!ar.ok()) return;
      std::fill(self.previous_pu_mask_.begin(), self.previous_pu_mask_.end(), 0);
      for (const std::int32_t pu : previous) {
        CRN_CHECK(pu >= 0 && static_cast<std::size_t>(pu) < self.pu_count_)
            << "checkpointed active PU " << pu << " is outside this scenario's "
            << self.pu_count_ << " PUs";
        self.previous_pu_mask_[static_cast<std::size_t>(pu) >> 6] |=
            std::uint64_t{1} << (pu & 63);
      }
    }
  }

 private:
  // Whether `mask` has exactly the bits of `active`.
  static bool MaskHolds(const std::vector<std::uint64_t>& mask,
                        const std::vector<std::int32_t>& active) {
    std::size_t bits = 0;
    for (const std::uint64_t word : mask) bits += __builtin_popcountll(word);
    return bits == active.size() &&
           std::all_of(active.begin(), active.end(), [&mask](std::int32_t pu) {
             return pu >= 0 && static_cast<std::size_t>(pu >> 6) < mask.size() &&
                    ((mask[static_cast<std::size_t>(pu) >> 6] >> (pu & 63)) & 1) != 0;
           });
  }

  FieldWork work_;
  PairGainCache su_gains_;
  PairGainCache pu_gains_;
  std::int64_t change_epoch_ = 0;
  std::int64_t pu_epoch_ = 0;
  std::int64_t shrink_epoch_ = 0;
  std::size_t pu_count_;
  std::vector<std::uint64_t> previous_pu_mask_;  // last NotePuSample mask
  // Per-receiver PU interference sums (lane sums in lane mode), valid while
  // pu_sum_epoch_ matches pu_epoch_.
  std::vector<double> pu_sum_;
  std::vector<std::int64_t> pu_sum_epoch_;
  // Lane mode (UseLanes): the kernel width, 0 in exact mode, and the
  // active PUs' positions padded with x = +inf to whole lane groups, as of
  // pu_epoch lane_epoch_. Scratch, never checkpointed.
  int lane_width_ = 0;
  std::int64_t lane_epoch_ = -1;
  std::vector<double> lane_x_;
  std::vector<double> lane_y_;
};

}  // namespace crn::spectrum

#endif  // CRN_SPECTRUM_INTERFERENCE_FIELD_H_
