// Interference-field engine: pairwise-gain caching with event-driven SIR
// reevaluation bookkeeping (DESIGN.md §10).
//
// Deployments are static, so the received power P·d^{-α} of every ordered
// (transmitter, receiver) pair is a run constant. PairGainCache computes
// each gain once, on first use, and EvaluateSir becomes a fixed-order sum
// of cached doubles. Because a cached gain is the *same double* the direct
// expression produces (ReceivedPowerSquared over DistanceSquared, identical
// inputs), and the summation order never changes, the cached engine is
// bit-identical to the direct one — min-SIR floors, trace digests and all.
// tests/mac/sir_engine_test.cc pins that equivalence over randomized
// scenarios; tests/spectrum/interference_field_test.cc pins the gains.
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
// SirEngine::kDirect computes every gain from positions on every use (no
// cache, no skips, no memos) while keeping the identical summation order —
// the reference the property tests and bench_sim_throughput compare
// against. All work is tallied in FieldWork; the counts are pure functions
// of (scenario, seed), so perf regressions are caught by exact counter
// comparison (tools/bench_delta.py) instead of wall-clock thresholds.
#ifndef CRN_SPECTRUM_INTERFERENCE_FIELD_H_
#define CRN_SPECTRUM_INTERFERENCE_FIELD_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "geom/vec2.h"
#include "sim/checkpoint.h"
#include "spectrum/interference.h"

namespace crn::spectrum {

// Which SIR evaluation engine a run uses. Both produce bit-identical
// results; kDirect exists as the reference/baseline for property tests and
// for before/after work accounting in the throughput bench.
enum class SirEngine : std::uint8_t { kCached, kDirect };

inline const char* ToString(SirEngine engine) {
  return engine == SirEngine::kCached ? "cached" : "direct";
}

// Deterministic work tally for SIR evaluation. Every field is an exact,
// seed-stable operation count (never a wall-clock quantity); RunWithNextHops
// exports them as perf.* counters when a MetricsRegistry is attached.
struct FieldWork {
  std::int64_t sir_evaluations = 0;     // full SIR computations performed
  // Interference terms computed from geometry — one DistanceSquared +
  // ReceivedPowerSquared per count. Cached-gain reads do NOT count here
  // (they are gain_cache_hits): this is the model-evaluation work the
  // engine actually performs, the quantity the ≥3× bench criterion and the
  // CI budget are pinned on.
  std::int64_t sir_terms_evaluated = 0;
  std::int64_t gain_cache_hits = 0;     // cached-gain reads
  std::int64_t gain_cache_misses = 0;   // first-use gain computations
  std::int64_t reeval_skipped = 0;      // refloors skipped via change_epoch
  std::int64_t pu_partials_reused = 0;  // per-receiver PU sums reused via pu_epoch
  std::int64_t su_resumes = 0;          // append-incremental interference resumes
  std::int64_t bound_skips = 0;         // refloors skipped via the SIR lower bound
};

// Lazy receiver-major cache of P·d^{-α} for every ordered (tx, rx) pair
// between two static position sets. Rows materialize on a receiver's first
// lookup — only nodes that actually receive (relays, parents) ever pay for
// one. A quiet NaN marks absent entries; real gains are strictly positive
// (positive power, distance clamped at PathLoss::kMinDistance).
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

  // Cached lookup; computes and stores the gain on first use.
  [[nodiscard]] double Gain(std::int32_t tx, std::int32_t rx, FieldWork& work) {
    std::vector<double>& row = rows_[static_cast<std::size_t>(rx)];
    if (row.empty()) {
      row.assign(tx_.size(), std::numeric_limits<double>::quiet_NaN());
    }
    double& slot = row[static_cast<std::size_t>(tx)];
    if (std::isnan(slot)) {
      ++work.gain_cache_misses;
      ++work.sir_terms_evaluated;
      slot = Direct(tx, rx);
    } else {
      ++work.gain_cache_hits;
    }
    return slot;
  }

  // The uncached expression — the exact double a Gain() entry holds.
  [[nodiscard]] double Direct(std::int32_t tx, std::int32_t rx) const {
    return loss_.ReceivedPowerSquared(
        power_, geom::DistanceSquared(tx_[static_cast<std::size_t>(tx)],
                                      rx_[static_cast<std::size_t>(rx)]));
  }

  [[nodiscard]] std::int64_t allocated_rows() const {
    std::int64_t rows = 0;
    for (const std::vector<double>& row : rows_) {
      if (!row.empty()) ++rows;
    }
    return rows;
  }

  // Checkpoint support (writes into the caller's open section). Gains are
  // pure functions of the static positions, so only the materialization
  // pattern is serialized — which rows exist and which entries are present —
  // plus an FNV digest of the cached values. LoadFrom re-derives every
  // present entry through Direct() (never Gain(): the rebuild must not
  // perturb the FieldWork counters) and verifies the digest, proving the
  // rebuilt cache is bit-identical to the checkpointed one.
  void SaveTo(sim::StateWriter& writer) const {
    writer.WriteU32(static_cast<std::uint32_t>(rows_.size()));
    writer.WriteU32(static_cast<std::uint32_t>(tx_.size()));
    std::uint64_t digest = 0xCBF29CE484222325ULL;
    for (const std::vector<double>& row : rows_) {
      writer.WriteBool(!row.empty());
      if (row.empty()) continue;
      for (const double value : row) {
        writer.WriteBool(!std::isnan(value));
        if (std::isnan(value)) continue;
        std::uint64_t bits = 0;
        __builtin_memcpy(&bits, &value, sizeof bits);
        digest = (digest ^ bits) * 0x100000001B3ULL;
      }
    }
    writer.WriteU64(digest);
  }

  void LoadFrom(sim::StateReader& reader) {
    const std::uint32_t rx_count = reader.ReadU32();
    const std::uint32_t tx_count = reader.ReadU32();
    if (reader.ok() && (rx_count != rows_.size() || tx_count != tx_.size())) {
      return;  // scenario mismatch; EndSection flags the misalignment
    }
    std::uint64_t digest = 0xCBF29CE484222325ULL;
    for (std::size_t rx = 0; rx < rows_.size() && reader.ok(); ++rx) {
      std::vector<double>& row = rows_[rx];
      row.clear();
      if (!reader.ReadBool()) continue;
      row.assign(tx_.size(), std::numeric_limits<double>::quiet_NaN());
      for (std::size_t tx = 0; tx < tx_.size(); ++tx) {
        if (!reader.ReadBool()) continue;
        const double value = Direct(static_cast<std::int32_t>(tx),
                                    static_cast<std::int32_t>(rx));
        row[tx] = value;
        std::uint64_t bits = 0;
        __builtin_memcpy(&bits, &value, sizeof bits);
        digest = (digest ^ bits) * 0x100000001B3ULL;
      }
    }
    const std::uint64_t saved_digest = reader.ReadU64();
    if (!reader.ok()) return;
    CRN_CHECK(digest == saved_digest)
        << "rebuilt gain cache diverges from the checkpoint (digest "
        << digest << " vs saved " << saved_digest
        << ") — the restored scenario's positions differ from the "
           "checkpointed run's";
  }

 private:
  PathLoss loss_;
  double power_;
  std::vector<geom::Vec2> tx_;
  std::vector<geom::Vec2> rx_;
  std::vector<std::vector<double>> rows_;  // rx-major, lazily allocated
};

// The per-run interference field: SU→SU and PU→SU gain caches plus the
// epoch counters driving the MAC's dirty-set reevaluation. Owns copies of
// the (static) position sets, so it has no lifetime coupling to the MAC's
// vectors.
class InterferenceField {
 public:
  InterferenceField(PathLoss loss, SirEngine engine,
                    const std::vector<geom::Vec2>& su_positions, double su_power,
                    const std::vector<geom::Vec2>& pu_positions, double pu_power)
      : engine_(engine),
        su_gains_(loss, su_power, su_positions, su_positions),
        pu_gains_(pu_positions.empty()
                      ? PairGainCache(loss, su_power, {}, su_positions)
                      : PairGainCache(loss, pu_power, pu_positions, su_positions)),
        pu_count_(pu_positions.size()),
        previous_pu_mask_((pu_positions.size() + 63) / 64, 0),
        pu_sum_(su_positions.size(), 0.0),
        pu_sum_epoch_(su_positions.size(), -1) {}

  [[nodiscard]] SirEngine engine() const { return engine_; }
  [[nodiscard]] FieldWork& work() { return work_; }
  [[nodiscard]] const FieldWork& work() const { return work_; }

  // Received power of SU `tx`'s signal at SU `rx`'s position.
  [[nodiscard]] double SuGain(std::int32_t tx, std::int32_t rx) {
    if (engine_ == SirEngine::kCached) return su_gains_.Gain(tx, rx, work_);
    ++work_.sir_terms_evaluated;
    return su_gains_.Direct(tx, rx);
  }

  // Received power of PU `pu`'s signal at SU `rx`'s position.
  [[nodiscard]] double PuGain(std::int32_t pu, std::int32_t rx) {
    if (engine_ == SirEngine::kCached) return pu_gains_.Gain(pu, rx, work_);
    ++work_.sir_terms_evaluated;
    return pu_gains_.Direct(pu, rx);
  }

  // Aggregate PU interference at SU `rx` from `active_pus` (ascending PU
  // id — the PrimaryNetwork active-list order). The cached engine memoizes
  // the sum per receiver, keyed on pu_epoch: ADDC serializes siblings onto
  // the same parent, so within one slot many evaluations target the same
  // receiver and the memoized double — produced by the identical fixed-order
  // sum — is bit-exact to reuse. The direct engine re-sums every time.
  [[nodiscard]] double PuInterference(std::int32_t rx,
                                      const std::vector<std::int32_t>& active_pus) {
    const auto receiver = static_cast<std::size_t>(rx);
    if (engine_ == SirEngine::kCached && pu_sum_epoch_[receiver] == pu_epoch_) {
      ++work_.pu_partials_reused;
      return pu_sum_[receiver];
    }
    double sum = 0.0;
    for (const std::int32_t pu : active_pus) sum += PuGain(pu, rx);
    if (engine_ == SirEngine::kCached) {
      pu_sum_[receiver] = sum;
      pu_sum_epoch_[receiver] = pu_epoch_;
    }
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

  // Checkpoint protocol (sim/checkpoint.h, section "field"): work counters,
  // the three epochs, the previous slot's active PUs (an ascending id list
  // read off the mask), the per-receiver PU-sum memos, and both gain caches'
  // materialization patterns (values are recomputed and digest-verified,
  // see PairGainCache::SaveTo).
  void SaveState(sim::StateWriter& writer) const {
    writer.BeginSection("field");
    writer.WriteI64(work_.sir_evaluations);
    writer.WriteI64(work_.sir_terms_evaluated);
    writer.WriteI64(work_.gain_cache_hits);
    writer.WriteI64(work_.gain_cache_misses);
    writer.WriteI64(work_.reeval_skipped);
    writer.WriteI64(work_.pu_partials_reused);
    writer.WriteI64(work_.su_resumes);
    writer.WriteI64(work_.bound_skips);
    writer.WriteI64(change_epoch_);
    writer.WriteI64(pu_epoch_);
    writer.WriteI64(shrink_epoch_);
    std::uint32_t previous_count = 0;
    for (const std::uint64_t word : previous_pu_mask_) {
      previous_count += static_cast<std::uint32_t>(__builtin_popcountll(word));
    }
    writer.WriteU32(previous_count);
    for (std::size_t w = 0; w < previous_pu_mask_.size(); ++w) {
      for (std::uint64_t bits = previous_pu_mask_[w]; bits != 0; bits &= bits - 1) {
        writer.WriteI32(static_cast<std::int32_t>(w * 64) + __builtin_ctzll(bits));
      }
    }
    writer.WriteU32(static_cast<std::uint32_t>(pu_sum_.size()));
    for (std::size_t i = 0; i < pu_sum_.size(); ++i) {
      writer.WriteDouble(pu_sum_[i]);
      writer.WriteI64(pu_sum_epoch_[i]);
    }
    su_gains_.SaveTo(writer);
    pu_gains_.SaveTo(writer);
    writer.EndSection();
  }

  void LoadState(sim::StateReader& reader) {
    if (!reader.OpenSection("field")) return;
    FieldWork work;
    work.sir_evaluations = reader.ReadI64();
    work.sir_terms_evaluated = reader.ReadI64();
    work.gain_cache_hits = reader.ReadI64();
    work.gain_cache_misses = reader.ReadI64();
    work.reeval_skipped = reader.ReadI64();
    work.pu_partials_reused = reader.ReadI64();
    work.su_resumes = reader.ReadI64();
    work.bound_skips = reader.ReadI64();
    const std::int64_t change_epoch = reader.ReadI64();
    const std::int64_t pu_epoch = reader.ReadI64();
    const std::int64_t shrink_epoch = reader.ReadI64();
    std::vector<std::int32_t> previous(reader.ReadU32());
    for (std::int32_t& pu : previous) pu = reader.ReadI32();
    const std::uint32_t sum_count = reader.ReadU32();
    if (reader.ok() && sum_count != pu_sum_.size()) {
      reader.EndSection();
      return;
    }
    std::vector<double> sums(pu_sum_.size(), 0.0);
    std::vector<std::int64_t> sum_epochs(pu_sum_epoch_.size(), -1);
    for (std::size_t i = 0; i < sums.size(); ++i) {
      sums[i] = reader.ReadDouble();
      sum_epochs[i] = reader.ReadI64();
    }
    su_gains_.LoadFrom(reader);
    pu_gains_.LoadFrom(reader);
    reader.EndSection();
    if (!reader.ok()) return;
    std::vector<std::uint64_t> previous_mask(previous_pu_mask_.size(), 0);
    for (const std::int32_t pu : previous) {
      CRN_CHECK(pu >= 0 && static_cast<std::size_t>(pu) < pu_count_)
          << "checkpointed active PU " << pu << " is outside this scenario's "
          << pu_count_ << " PUs";
      previous_mask[static_cast<std::size_t>(pu) >> 6] |= std::uint64_t{1} << (pu & 63);
    }
    work_ = work;
    change_epoch_ = change_epoch;
    pu_epoch_ = pu_epoch;
    shrink_epoch_ = shrink_epoch;
    previous_pu_mask_ = std::move(previous_mask);
    pu_sum_ = std::move(sums);
    pu_sum_epoch_ = std::move(sum_epochs);
  }

 private:
  SirEngine engine_;
  FieldWork work_;
  PairGainCache su_gains_;
  PairGainCache pu_gains_;
  std::int64_t change_epoch_ = 0;
  std::int64_t pu_epoch_ = 0;
  std::int64_t shrink_epoch_ = 0;
  std::size_t pu_count_;
  std::vector<std::uint64_t> previous_pu_mask_;  // last NotePuSample mask
  // Per-receiver PU interference sums, valid while pu_sum_epoch_ matches
  // pu_epoch_ (kCached only).
  std::vector<double> pu_sum_;
  std::vector<std::int64_t> pu_sum_epoch_;
};

}  // namespace crn::spectrum

#endif  // CRN_SPECTRUM_INTERFERENCE_FIELD_H_
