#include "obs/mac_metrics.h"

#include "common/check.h"
#include "sim/checkpoint.h"

namespace crn::obs {

std::string NodeLabel(mac::NodeId node) {
  std::string digits = std::to_string(node);
  if (digits.size() < 4) digits.insert(0, 4 - digits.size(), '0');
  return digits;
}

MacMetricsCollector::MacMetricsCollector(MetricsRegistry& registry,
                                         std::int32_t series_stride)
    : registry_(registry), series_stride_(series_stride) {}

void MacMetricsCollector::Attach(mac::CollectionMac& mac) {
  packets_created_ = &registry_.GetCounter("mac.packets_created_total");
  packets_enqueued_ = &registry_.GetCounter("mac.packets_enqueued_total");
  packets_delivered_ = &registry_.GetCounter("mac.packets_delivered_total");
  packets_dropped_ = &registry_.GetCounter("mac.packets_dropped_total");
  backoff_restarts_ = &registry_.GetCounter("mac.backoff_restarts_total");
  slot_defers_ = &registry_.GetCounter("mac.slot_defers_total");
  slots_ = &registry_.GetCounter("mac.slots_total");
  pu_active_ = &registry_.GetGauge("pu.active_transmitters");
  pu_active_per_slot_ = &registry_.GetHistogram("pu.active_per_slot");
  backoff_drawn_ns_ = &registry_.GetHistogram("mac.backoff_drawn_ns");
  freeze_time_ns_ = &registry_.GetHistogram("mac.freeze_time_ns");
  delivery_delay_ns_ = &registry_.GetHistogram("mac.delivery_delay_ns");
  delivery_hops_ = &registry_.GetHistogram("mac.delivery_hops");
  for (std::int32_t i = 0; i < mac::kTxOutcomeCount; ++i) {
    tx_attempts_[static_cast<std::size_t>(i)] = &registry_.GetCounter(
        "mac.tx_attempts_total",
        {{"outcome", mac::ToString(static_cast<mac::TxOutcome>(i))}});
  }
  queue_depth_.resize(static_cast<std::size_t>(mac.node_count()));
  for (mac::NodeId v = 0; v < mac.node_count(); ++v) {
    queue_depth_[static_cast<std::size_t>(v)] =
        &registry_.GetGauge("mac.queue_depth", {{"node", NodeLabel(v)}});
  }
  freeze_begin_.assign(static_cast<std::size_t>(mac.node_count()), -1);

  mac.AddObserver([this](const mac::MacEvent& event) { OnEvent(event); });
}

void MacMetricsCollector::SaveState(sim::StateWriter& writer) const {
  Transfer(*this, writer);
}

void MacMetricsCollector::LoadState(sim::StateReader& reader) {
  Transfer(*this, reader);
}

template <class Self, class Ar>
void MacMetricsCollector::Transfer(Self& self, Ar& ar) {
  if (!ar.BeginSection("mac_metrics")) return;
  ar.Io(self.slots_seen_);
  ar.FixedCount(self.freeze_begin_.size());
  for (auto& begin : self.freeze_begin_) ar.Io(begin);
  ar.EndSection();
}

void MacMetricsCollector::OnEvent(const mac::MacEvent& event) {
  using Kind = mac::MacEvent::Kind;
  switch (event.kind) {
    case Kind::kPacketCreated:
      packets_created_->Add();
      queue_depth_[static_cast<std::size_t>(event.node)]->Set(event.value);
      break;
    case Kind::kPacketEnqueued:
      packets_enqueued_->Add();
      queue_depth_[static_cast<std::size_t>(event.node)]->Set(event.value);
      break;
    case Kind::kPacketDelivered:
      packets_delivered_->Add();
      delivery_delay_ns_->Record(event.time - event.packet.created);
      delivery_hops_->Record(event.packet.hops);
      break;
    case Kind::kPacketDropped:
      packets_dropped_->Add();
      queue_depth_[static_cast<std::size_t>(event.node)]->Set(event.value);
      break;
    case Kind::kContentionStarted:
      backoff_restarts_->Add();
      backoff_drawn_ns_->Record(event.value);
      freeze_begin_[static_cast<std::size_t>(event.node)] = event.time;
      break;
    case Kind::kFrozen:
      freeze_begin_[static_cast<std::size_t>(event.node)] = event.time;
      break;
    case Kind::kResumed: {
      sim::TimeNs& begin = freeze_begin_[static_cast<std::size_t>(event.node)];
      if (begin >= 0) {
        if (event.time > begin) freeze_time_ns_->Record(event.time - begin);
        begin = -1;
      }
      break;
    }
    case Kind::kDeferred:
      slot_defers_->Add();
      break;
    case Kind::kSlotBoundary:
      slots_->Add();
      ++slots_seen_;
      pu_active_->Set(event.value);
      pu_active_per_slot_->Record(event.value);
      if (series_stride_ > 0 && slots_seen_ % series_stride_ == 0) {
        registry_.RecordSeriesPoint(event.time);
      }
      break;
    case Kind::kTxStart:
      break;
    case Kind::kTxEnd:
      tx_attempts_[static_cast<std::size_t>(event.outcome)]->Add();
      break;
  }
}

}  // namespace crn::obs
