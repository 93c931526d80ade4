#include "spectrum/interference_field.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

  const double first = field.PuInterference(1, active);
  EXPECT_EQ(first, reference.PuInterference(1, active));
  EXPECT_EQ(field.work().pu_partials_reused, 0);

  const double again = field.PuInterference(1, active);
  EXPECT_EQ(again, first);
  EXPECT_EQ(field.work().pu_partials_reused, 1);

  // A different receiver fills its own memo slot.
  const double other = field.PuInterference(3, active);
  EXPECT_EQ(other, reference.PuInterference(3, active));
  EXPECT_EQ(field.work().pu_partials_reused, 1);
}

TEST(InterferenceFieldTest, PuSetChangeInvalidatesMemo) {
  InterferenceField field = MakeField(SirEngine::kCached);
  const std::vector<std::int32_t> first{0, 1};
  field.NotePuSample(MaskOf(first));
  const double before = field.PuInterference(2, first);
  const std::vector<std::int32_t> second{1};
  EXPECT_TRUE(field.NotePuSample(MaskOf(second)));
  const double after = field.PuInterference(2, second);
  EXPECT_NE(before, after);
  EXPECT_EQ(field.work().pu_partials_reused, 0);
  // The new memo serves the new set.
  EXPECT_EQ(field.PuInterference(2, second), after);
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
  EXPECT_EQ(field.PuInterference(0, {}), 0.0);
  EXPECT_EQ(field.work().sir_terms_evaluated, 0);
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
