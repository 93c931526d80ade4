// Fixture: stays clean. MAC-layer timers bound under kind handles that
// RegisterEventKind("layer.kind") returned — once before a per-node loop,
// and once cached at first use — carry their kind into every record, so
// [unnamed-timer-kind] must not fire on either bind.
#include <vector>

#include "sim/simulator.h"

namespace crn::mac {

struct Agent {
  sim::Timer expiry_timer;
  sim::Timer end_timer;
};

void BindAll(sim::Simulator& sim, std::vector<Agent>& agents,
             sim::EventKind& end_kind) {
  const sim::EventKind expiry_kind = sim.RegisterEventKind("mac.backoff_expiry");
  for (std::size_t v = 0; v < agents.size(); ++v) {
    agents[v].expiry_timer.Bind(sim, sim::EventPriority::kTimerExpiry,
                                expiry_kind, static_cast<std::int32_t>(v),
                                sim::EventFn([] {}));
  }
  if (end_kind.id == 0) end_kind = sim.RegisterEventKind("mac.tx_end");
  agents.front().end_timer.Bind(sim, sim::EventPriority::kTransmissionEnd,
                                end_kind, 0, sim::EventFn([] {}));
}

}  // namespace crn::mac
