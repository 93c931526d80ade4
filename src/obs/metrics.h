// Deterministic sim-time metrics registry — the counters/gauges/histograms
// half of the observability layer (DESIGN.md §"Observability").
//
// Instruments are keyed by a stable name plus a canonical (sorted) label
// set, live for the registry's lifetime, and hand out cheap handles so hot
// paths pay one pointer bump per event — the map lookup happens once, at
// attach time. Nothing here reads a wall clock: snapshots are stamped with
// the simulation time the caller passes in, so a registry's contents (and
// its digest) are a pure function of the simulated run. Two design rules
// keep the parallel experiment engine bit-identical at any --jobs value:
//
//  * iteration is always in sorted-key order (std::map), never insertion
//    or hash order;
//  * cross-cell aggregation goes through Merge(), which the sweep engine
//    calls in the fixed (point, repetition) reduction order — counters and
//    histograms add, gauges take the merged-in value (last write wins in
//    reduction order).
#ifndef CRN_OBS_METRICS_H_
#define CRN_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace crn::sim {
class StateReader;
class StateWriter;
}  // namespace crn::sim

namespace crn::obs {

// Label set as passed by instrument users; canonicalized (sorted by label
// name) before it becomes part of the key.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* ToString(MetricKind kind);

// Monotone 64-bit event count.
class Counter {
 public:
  void Add(std::int64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::int64_t value() const { return value_; }

  // Checkpoint field list (sim/checkpoint.h).
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar) {
    ar.Io(self.value_);
  }

 private:
  std::int64_t value_ = 0;
};

// Last-written 64-bit level (queue depth, active-PU count, ...).
class Gauge {
 public:
  void Set(std::int64_t value) { value_ = value; }
  [[nodiscard]] std::int64_t value() const { return value_; }

  // Checkpoint field list (sim/checkpoint.h).
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar) {
    ar.Io(self.value_);
  }

 private:
  std::int64_t value_ = 0;
};

// Log-bucketed histogram over non-negative 64-bit samples: bucket 0 holds
// values <= 0, bucket b >= 1 holds values v with 2^(b-1) <= v < 2^b.
// Power-of-two buckets keep Record() branch-free (std::bit_width) and make
// merged histograms exact — no rebinning, ever.
class Histogram {
 public:
  static constexpr std::int32_t kBucketCount = 64;

  void Record(std::int64_t value);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  // min/max are 0 until the first sample.
  [[nodiscard]] std::int64_t min() const { return min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] const std::array<std::int64_t, kBucketCount>& buckets() const {
    return buckets_;
  }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  void MergeFrom(const Histogram& other);

  // Checkpoint field list (sim/checkpoint.h).
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar) {
    ar.Io(self.count_);
    ar.Io(self.sum_);
    ar.Io(self.min_);
    ar.Io(self.max_);
    for (auto& n : self.buckets_) ar.Io(n);
  }

 private:
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::array<std::int64_t, kBucketCount> buckets_{};
};

// One instrument's state at snapshot time. Counter/gauge use `value`;
// histograms use the count/sum/min/max/buckets fields (only non-empty
// buckets are kept, as (bucket index, count) pairs in index order).
struct SnapshotEntry {
  std::string key;  // rendered "name{label=value,...}"
  MetricKind kind = MetricKind::kCounter;
  std::int64_t value = 0;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::vector<std::pair<std::int32_t, std::int64_t>> buckets;
};

// The registry's full state at one simulation instant, entries in sorted
// key order.
struct Snapshot {
  sim::TimeNs at = 0;
  std::vector<SnapshotEntry> entries;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  // Find-or-create. Handles stay valid for the registry's lifetime; asking
  // for an existing key with a different kind is a programming error
  // (CRN_CHECK). Labels are canonicalized by sorting on label name.
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  Histogram& GetHistogram(const std::string& name, const Labels& labels = {});

  [[nodiscard]] std::size_t instrument_count() const { return instruments_.size(); }

  // Current state of every instrument, stamped with `at` (a simulation
  // time, not a wall clock).
  [[nodiscard]] Snapshot Capture(sim::TimeNs at) const;

  // Appends Capture(at) to the in-registry time series — call at sim-time
  // boundaries (the MAC collector does, every snapshot-stride slots).
  void RecordSeriesPoint(sim::TimeNs at) { series_.push_back(Capture(at)); }
  [[nodiscard]] const std::vector<Snapshot>& series() const { return series_; }

  // Folds `other` into this registry: counters and histograms add, gauges
  // take the merged-in value, missing instruments are created. The caller
  // fixes the fold order (the sweep engine merges cells in (point, rep)
  // order); the per-key behaviour is order-independent for counters and
  // histograms. Series points are appended in merge order.
  void Merge(const MetricsRegistry& other);

  // Order-sensitive FNV-1a digest over sorted keys, kinds, and integer
  // values. No wall-clock quantity ever enters a registry, so equal digests
  // certify bit-identical metric state across runs or jobs values.
  [[nodiscard]] std::uint64_t Digest() const;

  // Checkpoint protocol (sim/checkpoint.h, section "metrics"): every
  // instrument (by rendered key) plus the recorded series. Load before
  // components attach their handles — find-or-create then binds them to the
  // restored instruments.
  void SaveState(sim::StateWriter& writer) const;
  void LoadState(sim::StateReader& reader);

 private:
  struct Instrument {
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Instrument& GetOrCreate(const std::string& name, const Labels& labels,
                          MetricKind kind);

  // The "metrics" section's field list: (key, instrument) pairs in key
  // order, then the series. The load side reads into fresh containers and
  // adopts them only when the whole section read cleanly.
  template <class Instruments, class Series, class Ar>
  static void Transfer(Instruments& instruments, Series& series, Ar& ar);

  // Sorted by rendered key: deterministic iteration everywhere.
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;
  std::vector<Snapshot> series_;
};

// Canonical instrument key: name, then labels sorted by label name, as
// "name{a=x,b=y}" (bare "name" when unlabeled). Exposed for tests.
std::string RenderMetricKey(const std::string& name, const Labels& labels);

// FNV-1a digest of a snapshot (same scheme as MetricsRegistry::Digest).
std::uint64_t SnapshotDigest(const Snapshot& snapshot);

}  // namespace crn::obs

#endif  // CRN_OBS_METRICS_H_
