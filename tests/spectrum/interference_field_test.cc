#include "spectrum/interference_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geom/vec2.h"
#include "sim/checkpoint.h"

namespace crn::spectrum {
namespace {

using geom::Vec2;

std::vector<Vec2> SuPositions() {
  return {{0.0, 0.0}, {3.0, 4.0}, {10.0, 0.0}, {7.0, 7.0}, {1.0, 9.0}};
}

std::vector<Vec2> PuPositions() { return {{2.0, 2.0}, {8.0, 1.0}, {5.0, 9.0}}; }

InterferenceField MakeField(SirEngine engine, double alpha = 4.0) {
  return InterferenceField(PathLoss(alpha), engine, SuPositions(), 1.5,
                           PuPositions(), 6.0);
}

// The activity mask NotePuSample takes, for PuPositions()' three PUs.
std::vector<std::uint64_t> MaskOf(const std::vector<std::int32_t>& active) {
  std::vector<std::uint64_t> mask(1, 0);
  for (const std::int32_t pu : active) mask[0] |= std::uint64_t{1} << pu;
  return mask;
}

TEST(PairGainCacheTest, GainMatchesDirectBitForBit) {
  for (const double alpha : {4.0, 3.5, 2.7}) {
    PairGainCache cache(PathLoss(alpha), 2.5, SuPositions(), SuPositions());
    FieldWork work;
    for (std::int32_t tx = 0; tx < 5; ++tx) {
      for (std::int32_t rx = 0; rx < 5; ++rx) {
        // EXPECT_EQ, not NEAR: the cache must hold the exact double the
        // direct expression produces — that is the whole determinism story.
        EXPECT_EQ(cache.Gain(tx, rx, work), cache.Direct(tx, rx))
            << "alpha=" << alpha << " tx=" << tx << " rx=" << rx;
      }
    }
  }
}

TEST(PairGainCacheTest, CountsMissesThenHits) {
  PairGainCache cache(PathLoss(4.0), 1.0, SuPositions(), SuPositions());
  FieldWork work;
  (void)cache.Gain(0, 1, work);
  (void)cache.Gain(2, 1, work);
  EXPECT_EQ(work.gain_cache_misses, 2);
  EXPECT_EQ(work.gain_cache_hits, 0);
  (void)cache.Gain(0, 1, work);
  (void)cache.Gain(2, 1, work);
  EXPECT_EQ(work.gain_cache_misses, 2);
  EXPECT_EQ(work.gain_cache_hits, 2);
}

TEST(PairGainCacheTest, RowsMaterializeLazily) {
  PairGainCache cache(PathLoss(4.0), 1.0, SuPositions(), SuPositions());
  FieldWork work;
  EXPECT_EQ(cache.allocated_rows(), 0);
  (void)cache.Gain(0, 3, work);
  EXPECT_EQ(cache.allocated_rows(), 1);
  (void)cache.Gain(1, 3, work);
  EXPECT_EQ(cache.allocated_rows(), 1);
  (void)cache.Gain(1, 0, work);
  EXPECT_EQ(cache.allocated_rows(), 2);
}

TEST(PairGainCacheTest, RejectsNonPositivePower) {
  EXPECT_THROW(PairGainCache(PathLoss(4.0), 0.0, SuPositions(), SuPositions()),
               ContractViolation);
}

TEST(InterferenceFieldTest, EnginesAgreeOnEveryGain) {
  InterferenceField cached = MakeField(SirEngine::kCached);
  InterferenceField direct = MakeField(SirEngine::kDirect);
  for (std::int32_t tx = 0; tx < 5; ++tx) {
    for (std::int32_t rx = 0; rx < 5; ++rx) {
      EXPECT_EQ(cached.SuGain(tx, rx), direct.SuGain(tx, rx));
    }
  }
  for (std::int32_t pu = 0; pu < 3; ++pu) {
    for (std::int32_t rx = 0; rx < 5; ++rx) {
      EXPECT_EQ(cached.PuGain(pu, rx), direct.PuGain(pu, rx));
    }
  }
}

TEST(InterferenceFieldTest, DirectEngineBypassesCache) {
  InterferenceField field = MakeField(SirEngine::kDirect);
  (void)field.SuGain(0, 1);
  (void)field.SuGain(0, 1);
  (void)field.PuGain(2, 4);
  EXPECT_EQ(field.work().gain_cache_hits, 0);
  EXPECT_EQ(field.work().gain_cache_misses, 0);
  EXPECT_EQ(field.work().sir_terms_evaluated, 3);
  EXPECT_EQ(field.su_rows_allocated(), 0);
}

TEST(InterferenceFieldTest, CachedEngineCountsOnlyMissesAsTerms) {
  InterferenceField field = MakeField(SirEngine::kCached);
  (void)field.SuGain(0, 1);
  (void)field.SuGain(0, 1);
  (void)field.SuGain(0, 1);
  EXPECT_EQ(field.work().sir_terms_evaluated, 1);
  EXPECT_EQ(field.work().gain_cache_misses, 1);
  EXPECT_EQ(field.work().gain_cache_hits, 2);
}

TEST(InterferenceFieldTest, PuInterferenceMemoIsBitExact) {
  InterferenceField field = MakeField(SirEngine::kCached);
  InterferenceField reference = MakeField(SirEngine::kDirect);
  const std::vector<std::int32_t> active{0, 2};
  EXPECT_TRUE(field.NotePuSample(MaskOf(active)));
  EXPECT_TRUE(reference.NotePuSample(MaskOf(active)));

  const double first = field.PuInterference(1, active, MaskOf(active));
  EXPECT_EQ(first, reference.PuInterference(1, active, MaskOf(active)));
  EXPECT_EQ(field.work().pu_partials_reused, 0);

  const double again = field.PuInterference(1, active, MaskOf(active));
  EXPECT_EQ(again, first);
  EXPECT_EQ(field.work().pu_partials_reused, 1);

  // A different receiver fills its own memo slot.
  const double other = field.PuInterference(3, active, MaskOf(active));
  EXPECT_EQ(other, reference.PuInterference(3, active, MaskOf(active)));
  EXPECT_EQ(field.work().pu_partials_reused, 1);
}

TEST(InterferenceFieldTest, PuSetChangeInvalidatesMemo) {
  InterferenceField field = MakeField(SirEngine::kCached);
  const std::vector<std::int32_t> first{0, 1};
  field.NotePuSample(MaskOf(first));
  const double before = field.PuInterference(2, first, MaskOf(first));
  const std::vector<std::int32_t> second{1};
  EXPECT_TRUE(field.NotePuSample(MaskOf(second)));
  const double after = field.PuInterference(2, second, MaskOf(second));
  EXPECT_NE(before, after);
  EXPECT_EQ(field.work().pu_partials_reused, 0);
  // The new memo serves the new set.
  EXPECT_EQ(field.PuInterference(2, second, MaskOf(second)), after);
  EXPECT_EQ(field.work().pu_partials_reused, 1);
}

// The dirty-set epoch semantics behind the MAC's reevaluation triggers:
// tx start bumps change_epoch only, tx end/abort bumps shrink_epoch only,
// and a slot-boundary PU resample bumps change + pu only when the active
// set actually changed.
TEST(InterferenceFieldTest, EpochSemantics) {
  InterferenceField field = MakeField(SirEngine::kCached);
  EXPECT_EQ(field.change_epoch(), 0);
  EXPECT_EQ(field.pu_epoch(), 0);
  EXPECT_EQ(field.shrink_epoch(), 0);

  field.NoteSuInterfererAdded();  // a transmission started
  EXPECT_EQ(field.change_epoch(), 1);
  EXPECT_EQ(field.pu_epoch(), 0);
  EXPECT_EQ(field.shrink_epoch(), 0);

  field.NoteSuInterfererRemoved();  // it ended (or aborted)
  EXPECT_EQ(field.change_epoch(), 1);
  EXPECT_EQ(field.shrink_epoch(), 1);

  // First sample with no active PUs matches the initial empty set: no bump.
  EXPECT_FALSE(field.NotePuSample(MaskOf({})));
  EXPECT_EQ(field.change_epoch(), 1);
  EXPECT_EQ(field.pu_epoch(), 0);

  EXPECT_TRUE(field.NotePuSample(MaskOf({1, 2})));
  EXPECT_EQ(field.change_epoch(), 2);
  EXPECT_EQ(field.pu_epoch(), 1);

  // Resampling the identical set is not a change.
  EXPECT_FALSE(field.NotePuSample(MaskOf({1, 2})));
  EXPECT_EQ(field.change_epoch(), 2);
  EXPECT_EQ(field.pu_epoch(), 1);

  EXPECT_TRUE(field.NotePuSample(MaskOf({})));
  EXPECT_EQ(field.change_epoch(), 3);
  EXPECT_EQ(field.pu_epoch(), 2);
}

TEST(InterferenceFieldTest, EmptyPuDeploymentIsUsable) {
  InterferenceField field(PathLoss(4.0), SirEngine::kCached, SuPositions(), 1.0,
                          {}, 0.0);
  EXPECT_EQ(field.PuInterference(0, {}, {}), 0.0);
  EXPECT_EQ(field.work().sir_terms_evaluated, 0);
}

std::vector<Vec2> RandomPositions(Rng& rng, std::int32_t count) {
  std::vector<Vec2> positions;
  for (std::int32_t i = 0; i < count; ++i) {
    positions.push_back({rng.UniformDouble(0.0, 100.0), rng.UniformDouble(0.0, 100.0)});
  }
  return positions;
}

// A random activity mask over `count` PUs with each PU active w.p. `p`.
std::vector<std::uint64_t> RandomMask(Rng& rng, std::int32_t count, double p) {
  std::vector<std::uint64_t> mask(static_cast<std::size_t>(count + 63) / 64, 0);
  for (std::int32_t pu = 0; pu < count; ++pu) {
    if (rng.Bernoulli(p)) {
      mask[static_cast<std::size_t>(pu) >> 6] |= std::uint64_t{1} << (pu & 63);
    }
  }
  return mask;
}

std::vector<std::int32_t> ActiveOf(const std::vector<std::uint64_t>& mask) {
  std::vector<std::int32_t> active;
  for (std::size_t w = 0; w < mask.size(); ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      active.push_back(static_cast<std::int32_t>(w * 64) + __builtin_ctzll(bits));
    }
  }
  return active;
}

// PuInterference accounts a slot's PU reads one mask word at a time. Its
// sums and counts must be exactly what one Gain call per active PU gives,
// at widths just below, at and just above one 64-bit word.
TEST(InterferenceFieldTest, WordReadAccountingMatchesPerPairGains) {
  constexpr std::int32_t kSus = 12;
  for (const std::int32_t pus : {63, 64, 65}) {
    SCOPED_TRACE(pus);
    Rng rng(0x5EED0000ULL + static_cast<std::uint64_t>(pus));
    const std::vector<Vec2> sus = RandomPositions(rng, kSus);
    const std::vector<Vec2> pu_positions = RandomPositions(rng, pus);
    InterferenceField field(PathLoss(3.5), SirEngine::kCached, sus, 1.0, pu_positions,
                            4.0);
    PairGainCache reference(PathLoss(3.5), 4.0, pu_positions, sus);
    FieldWork expected;
    for (int slot = 0; slot < 200; ++slot) {
      // Densities from empty to full: empty, sparse, dense and full words.
      const std::vector<std::uint64_t> mask = RandomMask(rng, pus, (slot % 5) / 4.0);
      if (!field.NotePuSample(mask)) continue;  // unchanged set: memos still hold
      const std::vector<std::int32_t> active = ActiveOf(mask);
      // A few distinct receivers per slot, so no memo is reused.
      const auto first = static_cast<std::int32_t>(rng.UniformInt(kSus));
      for (std::int32_t k = 0; k < 4; ++k) {
        const std::int32_t rx = (first + 3 * k) % kSus;
        double sum = 0.0;
        for (const std::int32_t pu : active) sum += reference.Gain(pu, rx, expected);
        EXPECT_EQ(field.PuInterference(rx, active, mask), sum);
        ASSERT_EQ(field.work().gain_cache_hits, expected.gain_cache_hits);
        ASSERT_EQ(field.work().gain_cache_misses, expected.gain_cache_misses);
        ASSERT_EQ(field.work().sir_terms_evaluated, expected.sir_terms_evaluated);
        EXPECT_EQ(field.pu_rows_allocated(), reference.allocated_rows());
      }
    }
    EXPECT_GT(expected.gain_cache_hits, 0);
    EXPECT_EQ(field.pu_rows_allocated(), kSus);
  }
}

TEST(InterferenceFieldTest, EmptyPuSumMaterializesNoRow) {
  for (const SirEngine engine : {SirEngine::kCached, SirEngine::kDirect}) {
    InterferenceField field = MakeField(engine);
    EXPECT_FALSE(field.NotePuSample(MaskOf({})));
    EXPECT_EQ(field.PuInterference(2, {}, MaskOf({})), 0.0);
    EXPECT_EQ(field.pu_rows_allocated(), 0);
    EXPECT_EQ(field.work().gain_cache_misses, 0);
    EXPECT_EQ(field.work().sir_terms_evaluated, 0);
    EXPECT_TRUE(field.NotePuSample(MaskOf({1})));
    EXPECT_GT(field.PuInterference(2, {1}, MaskOf({1})), 0.0);
    EXPECT_EQ(field.pu_rows_allocated(), engine == SirEngine::kCached ? 1 : 0);
    EXPECT_EQ(field.work().sir_terms_evaluated, 1);
  }
}

// The cache the read records replaced: it stored each read pair's gain as
// a double, NaN marking a pair never read. Kept here only as the oracle
// for the checkpoint bytes, which must not change.
class StoredGainCache {
 public:
  StoredGainCache(PathLoss loss, double power, std::vector<Vec2> tx, std::vector<Vec2> rx)
      : gains_(loss, power, tx, rx), tx_count_(tx.size()), rows_(rx.size()) {}

  double Gain(std::int32_t tx, std::int32_t rx) {
    std::vector<double>& row = rows_[static_cast<std::size_t>(rx)];
    if (row.empty()) row.assign(tx_count_, std::numeric_limits<double>::quiet_NaN());
    double& slot = row[static_cast<std::size_t>(tx)];
    if (std::isnan(slot)) slot = gains_.Direct(tx, rx);
    return slot;
  }

  // What the storing cache's Transfer wrote on save.
  static void Transfer(const StoredGainCache& self, sim::StateWriter& writer) {
    writer.WriteU32(static_cast<std::uint32_t>(self.rows_.size()));
    writer.WriteU32(static_cast<std::uint32_t>(self.tx_count_));
    std::uint64_t digest = 0xCBF29CE484222325ULL;
    for (const std::vector<double>& row : self.rows_) {
      writer.WriteBool(!row.empty());
      for (const double gain : row) {
        writer.WriteBool(!std::isnan(gain));
        if (std::isnan(gain)) continue;
        std::uint64_t bits = 0;
        __builtin_memcpy(&bits, &gain, sizeof bits);
        digest = (digest ^ bits) * 0x100000001B3ULL;
      }
    }
    writer.WriteU64(digest);
  }

 private:
  PairGainCache gains_;  // for Direct() only
  std::size_t tx_count_;
  std::vector<std::vector<double>> rows_;
};

template <class Cache>
std::string SaveCache(const Cache& cache) {
  sim::StateWriter writer;
  writer.BeginSection("gains");
  Cache::Transfer(cache, writer);
  writer.EndSection();
  return writer.Finish();
}

void LoadCache(PairGainCache& cache, const std::string& blob) {
  sim::StateReader reader(blob);
  reader.BeginSection("gains");
  PairGainCache::Transfer(cache, reader);
  reader.EndSection();
  ASSERT_TRUE(reader.ok()) << reader.error();
}

TEST(PairGainCacheTest, TransferWritesTheStoringCachesBytes) {
  Rng rng(0x7A45F3ULL);
  constexpr std::int32_t kTx = 70;
  constexpr std::int32_t kRx = 9;
  const std::vector<Vec2> tx = RandomPositions(rng, kTx);
  const std::vector<Vec2> rx = RandomPositions(rng, kRx);
  PairGainCache cache(PathLoss(3.5), 2.0, tx, rx);
  StoredGainCache stored(PathLoss(3.5), 2.0, tx, rx);
  FieldWork work;
  EXPECT_EQ(SaveCache(cache), SaveCache(stored));  // nothing read yet
  for (int round = 0; round < 30; ++round) {
    // Receivers 0..kRx-2 only, so one row stays absent.
    const auto receiver = static_cast<std::int32_t>(rng.UniformInt(kRx - 1));
    if (round % 2 == 0) {
      const auto transmitter = static_cast<std::int32_t>(rng.UniformInt(kTx));
      EXPECT_EQ(cache.Gain(transmitter, receiver, work),
                stored.Gain(transmitter, receiver));
    } else {
      const std::vector<std::uint64_t> mask = RandomMask(rng, kTx, 0.1);
      cache.NoteReads(receiver, mask, work);
      for (const std::int32_t transmitter : ActiveOf(mask)) {
        (void)stored.Gain(transmitter, receiver);
      }
    }
    ASSERT_EQ(SaveCache(cache), SaveCache(stored)) << "round " << round;
  }
  const std::string blob = SaveCache(stored);

  // A load rebuilds the same read records: every later read is a hit or a
  // miss exactly as on the cache that was saved.
  PairGainCache restored(PathLoss(3.5), 2.0, tx, rx);
  LoadCache(restored, blob);
  EXPECT_EQ(SaveCache(restored), blob);
  EXPECT_EQ(restored.allocated_rows(), cache.allocated_rows());
  FieldWork after_load;
  for (std::int32_t r = 0; r < kRx; ++r) {
    for (std::int32_t t = 0; t < kTx; ++t) (void)restored.Gain(t, r, after_load);
  }
  FieldWork original_reads;
  for (std::int32_t r = 0; r < kRx; ++r) {
    for (std::int32_t t = 0; t < kTx; ++t) (void)cache.Gain(t, r, original_reads);
  }
  EXPECT_EQ(after_load.gain_cache_hits, original_reads.gain_cache_hits);
  EXPECT_EQ(after_load.gain_cache_misses, original_reads.gain_cache_misses);

  // A different deployment fails the gain digest.
  std::vector<Vec2> moved = tx;
  for (Vec2& position : moved) position.x += 1.0;
  PairGainCache elsewhere(PathLoss(3.5), 2.0, moved, rx);
  EXPECT_THROW(LoadCache(elsewhere, blob), ContractViolation);
}

// A "field" section as MakeField()'s field saves it after one NotePuSample:
// zero work counters, change and PU epochs 1, the previous slot's active
// list `active`, no PU-sum memos and untouched gain caches.
std::string FieldBlob(const std::vector<std::int32_t>& active) {
  sim::StateWriter writer;
  writer.BeginSection("field");
  for (int i = 0; i < 8; ++i) writer.WriteI64(0);  // FieldWork
  writer.WriteI64(1);                               // change_epoch
  writer.WriteI64(1);                               // pu_epoch
  writer.WriteI64(0);                               // shrink_epoch
  writer.WriteU32(static_cast<std::uint32_t>(active.size()));
  for (const std::int32_t pu : active) writer.WriteI32(pu);
  writer.WriteU32(5);
  for (int rx = 0; rx < 5; ++rx) {
    writer.WriteDouble(0.0);
    writer.WriteI64(-1);
  }
  for (const std::uint32_t tx_count : {5U, 3U}) {  // SU, then PU gain cache
    writer.WriteU32(5);
    writer.WriteU32(tx_count);
    for (int rx = 0; rx < 5; ++rx) writer.WriteBool(false);
    writer.WriteU64(0xCBF29CE484222325ULL);  // FNV basis: no cached values
  }
  writer.EndSection();
  return writer.Finish();
}

TEST(InterferenceFieldTest, RestoresPreviousActiveSet) {
  InterferenceField saved = MakeField(SirEngine::kCached);
  ASSERT_TRUE(saved.NotePuSample(MaskOf({0, 2})));
  sim::StateWriter writer;
  saved.SaveState(writer);
  const std::string blob = writer.Finish();
  ASSERT_EQ(blob, FieldBlob({0, 2}));  // FieldBlob writes the real layout

  InterferenceField restored = MakeField(SirEngine::kCached);
  sim::StateReader reader(blob);
  restored.LoadState(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(restored.pu_epoch(), 1);
  EXPECT_FALSE(restored.NotePuSample(MaskOf({0, 2})));
}

// Ids past the PU count are rejected even where the ⌈N/64⌉-word mask would
// have room for them: such a bit could never match a live sample.
TEST(InterferenceFieldTest, RejectsCheckpointedPuOutsideDeployment) {
  for (const std::int32_t pu : {-1, 3, 63, 64}) {
    const std::string blob = FieldBlob({pu});
    sim::StateReader reader(blob);
    InterferenceField field = MakeField(SirEngine::kCached);
    EXPECT_THROW(field.LoadState(reader), ContractViolation) << "pu=" << pu;
  }
}

}  // namespace
}  // namespace crn::spectrum
