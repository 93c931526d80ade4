// MacMetricsCollector — bridges the MAC's event stream (mac::MacEvent) into
// a MetricsRegistry. Instrument handles are resolved once at Attach, so the
// per-event cost is a few integer bumps; with no collector attached the MAC
// pays nothing at all (CollectionMac::Emit's empty-observer early-out).
//
// Registry naming scheme (DESIGN.md §"Observability"):
//   <subsystem>.<measure>[_<unit>][{label=value,...}]
// e.g. mac.freeze_time_ns, mac.tx_attempts_total{outcome=success},
// mac.queue_depth{node=0007}, pu.active_transmitters. Counter names end in
// _total, durations carry a _ns suffix, node labels are zero-padded to keep
// the registry's lexicographic order numeric.
#ifndef CRN_OBS_MAC_METRICS_H_
#define CRN_OBS_MAC_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mac/collection_mac.h"
#include "mac/packet.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace crn::obs {

// Zero-padded node label ("0007") so lexicographic key order matches
// numeric node order. Exposed for tests and exporters.
std::string NodeLabel(mac::NodeId node);

class MacMetricsCollector {
 public:
  // Snapshot the whole registry into its time series every `stride` slot
  // boundaries (0 disables the series; instruments still accumulate).
  explicit MacMetricsCollector(MetricsRegistry& registry,
                               std::int32_t series_stride = 64);

  // Resolves instrument handles and subscribes to `mac`'s events; call
  // before the run. Both the registry and the collector must outlive it.
  void Attach(mac::CollectionMac& mac);

  // Checkpoint protocol (sim/checkpoint.h, section "mac_metrics"): the
  // collector's own cursor state — slot counter and open freeze windows.
  // Instrument values live in the registry's own section; load the registry
  // before Attach so the cached handles bind to the restored instruments.
  void SaveState(sim::StateWriter& writer) const;
  void LoadState(sim::StateReader& reader);

 private:
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar);
  void OnEvent(const mac::MacEvent& event);

  MetricsRegistry& registry_;
  std::int32_t series_stride_;
  std::int64_t slots_seen_ = 0;

  // Cached handles (valid for the registry's lifetime).
  Counter* packets_created_ = nullptr;
  Counter* packets_enqueued_ = nullptr;
  Counter* packets_delivered_ = nullptr;
  Counter* packets_dropped_ = nullptr;
  Counter* backoff_restarts_ = nullptr;
  Counter* slot_defers_ = nullptr;
  Counter* slots_ = nullptr;
  Gauge* pu_active_ = nullptr;
  Histogram* pu_active_per_slot_ = nullptr;
  Histogram* backoff_drawn_ns_ = nullptr;
  Histogram* freeze_time_ns_ = nullptr;
  Histogram* delivery_delay_ns_ = nullptr;
  Histogram* delivery_hops_ = nullptr;
  std::array<Counter*, mac::kTxOutcomeCount> tx_attempts_{};
  std::vector<Gauge*> queue_depth_;       // per node, resolved at Attach
  std::vector<sim::TimeNs> freeze_begin_;  // open freeze start, -1 if none
};

}  // namespace crn::obs

#endif  // CRN_OBS_MAC_METRICS_H_
