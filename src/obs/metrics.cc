#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "sim/audit.h"
#include "sim/checkpoint.h"

namespace crn::obs {

const char* ToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void Histogram::Record(std::int64_t value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const std::int32_t bucket =
      value <= 0 ? 0 : std::bit_width(static_cast<std::uint64_t>(value));
  ++buckets_[static_cast<std::size_t>(std::min(bucket, kBucketCount - 1))];
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::int32_t b = 0; b < kBucketCount; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
  }
}

std::string RenderMetricKey(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key.push_back('{');
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += sorted[i].first;
    key.push_back('=');
    key += sorted[i].second;
  }
  key.push_back('}');
  return key;
}

MetricsRegistry::Instrument& MetricsRegistry::GetOrCreate(const std::string& name,
                                                          const Labels& labels,
                                                          MetricKind kind) {
  const std::string key = RenderMetricKey(name, labels);
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    auto instrument = std::make_unique<Instrument>();
    instrument->kind = kind;
    it = instruments_.emplace(key, std::move(instrument)).first;
  }
  CRN_CHECK(it->second->kind == kind)
      << "metric '" << key << "' registered as " << ToString(it->second->kind)
      << ", requested as " << ToString(kind);
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, const Labels& labels) {
  return GetOrCreate(name, labels, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  return GetOrCreate(name, labels, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  return GetOrCreate(name, labels, MetricKind::kHistogram).histogram;
}

Snapshot MetricsRegistry::Capture(sim::TimeNs at) const {
  Snapshot snapshot;
  snapshot.at = at;
  snapshot.entries.reserve(instruments_.size());
  for (const auto& [key, instrument] : instruments_) {
    SnapshotEntry entry;
    entry.key = key;
    entry.kind = instrument->kind;
    switch (instrument->kind) {
      case MetricKind::kCounter:
        entry.value = instrument->counter.value();
        break;
      case MetricKind::kGauge:
        entry.value = instrument->gauge.value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = instrument->histogram;
        entry.count = h.count();
        entry.sum = h.sum();
        entry.min = h.min();
        entry.max = h.max();
        for (std::int32_t b = 0; b < Histogram::kBucketCount; ++b) {
          const std::int64_t n = h.buckets()[static_cast<std::size_t>(b)];
          if (n != 0) entry.buckets.emplace_back(b, n);
        }
        break;
      }
    }
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [key, theirs] : other.instruments_) {
    auto it = instruments_.find(key);
    if (it == instruments_.end()) {
      auto instrument = std::make_unique<Instrument>();
      instrument->kind = theirs->kind;
      it = instruments_.emplace(key, std::move(instrument)).first;
    }
    Instrument& mine = *it->second;
    CRN_CHECK(mine.kind == theirs->kind)
        << "metric '" << key << "' kind mismatch on merge";
    switch (theirs->kind) {
      case MetricKind::kCounter:
        mine.counter.Add(theirs->counter.value());
        break;
      case MetricKind::kGauge:
        mine.gauge.Set(theirs->gauge.value());
        break;
      case MetricKind::kHistogram:
        mine.histogram.MergeFrom(theirs->histogram);
        break;
    }
  }
  for (const Snapshot& point : other.series_) {
    series_.push_back(point);
  }
}

std::uint64_t SnapshotDigest(const Snapshot& snapshot) {
  sim::TraceDigest digest;
  digest.MixSigned(snapshot.at);
  for (const SnapshotEntry& entry : snapshot.entries) {
    digest.MixString(entry.key);
    digest.Mix(static_cast<std::uint64_t>(entry.kind));
    digest.MixSigned(entry.value);
    digest.MixSigned(entry.count);
    digest.MixSigned(entry.sum);
    digest.MixSigned(entry.min);
    digest.MixSigned(entry.max);
    for (const auto& [bucket, n] : entry.buckets) {
      digest.MixSigned(bucket);
      digest.MixSigned(n);
    }
  }
  return digest.value();
}

namespace {

template <class Self, class Ar>
void TransferSnapshot(Self& snapshot, Ar& ar) {
  ar.Io(snapshot.at);
  ar.Seq(snapshot.entries, [](auto& io, auto& entry) {
    io.Io(entry.key);
    io.Io(entry.kind);
    io.Io(entry.value);
    io.Io(entry.count);
    io.Io(entry.sum);
    io.Io(entry.min);
    io.Io(entry.max);
    io.Seq(entry.buckets, [](auto& bucket_io, auto& bucket) {
      bucket_io.Io(bucket.first);
      bucket_io.Io(bucket.second);
    });
  });
}

}  // namespace

template <class Instruments, class Series, class Ar>
void MetricsRegistry::Transfer(Instruments& instruments, Series& series, Ar& ar) {
  if (!ar.BeginSection("metrics")) return;
  ar.Seq(instruments, [](auto& io, auto& entry) {
    io.Io(entry.first);
    auto& instrument = entry.second;
    io.Io(instrument.kind);
    switch (instrument.kind) {
      case MetricKind::kCounter:
        Counter::Transfer(instrument.counter, io);
        break;
      case MetricKind::kGauge:
        Gauge::Transfer(instrument.gauge, io);
        break;
      case MetricKind::kHistogram:
        Histogram::Transfer(instrument.histogram, io);
        break;
    }
  });
  ar.Seq(series, [](auto& io, auto& point) { TransferSnapshot(point, io); });
  ar.EndSection();
}

void MetricsRegistry::SaveState(sim::StateWriter& writer) const {
  std::vector<std::pair<std::string, Instrument>> instruments;
  instruments.reserve(instruments_.size());
  for (const auto& [key, instrument] : instruments_) {
    instruments.emplace_back(key, *instrument);
  }
  Transfer(instruments, series_, writer);
}

void MetricsRegistry::LoadState(sim::StateReader& reader) {
  std::vector<std::pair<std::string, Instrument>> instruments;
  std::vector<Snapshot> series;
  Transfer(instruments, series, reader);
  if (!reader.ok()) return;
  // Existing instruments keep their address: components may already hold
  // handles to them.
  for (auto& [key, loaded] : instruments) {
    auto it = instruments_.find(key);
    if (it == instruments_.end()) {
      it = instruments_.emplace(key, std::make_unique<Instrument>(loaded)).first;
    }
    CRN_CHECK(it->second->kind == loaded.kind)
        << "metric '" << key << "' kind mismatch on checkpoint restore";
    *it->second = loaded;
  }
  series_.insert(series_.end(), std::make_move_iterator(series.begin()),
                 std::make_move_iterator(series.end()));
}

std::uint64_t MetricsRegistry::Digest() const {
  // The final state digest deliberately ignores the series: two runs that
  // agree on every instrument but sampled at different strides still match.
  // Series determinism is pinned separately by the tests, via the series'
  // own SnapshotDigest values.
  return SnapshotDigest(Capture(0));
}

}  // namespace crn::obs
