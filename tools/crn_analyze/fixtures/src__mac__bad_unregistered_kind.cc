// Fixture: fires [unnamed-timer-kind]. A MAC-layer timer bound under a
// kind handle that no RegisterEventKind("layer.kind") call produced: a
// value-initialised sim::EventKind is id 0, "unnamed", so its arms and
// fires decode as "unnamed" exactly as a kind-less Bind's would.
#include "sim/simulator.h"

namespace crn::mac {

struct Agent {
  sim::Timer expiry_timer;
};

void BindExpiry(sim::Simulator& sim, Agent& agent, std::int32_t owner) {
  const sim::EventKind kind{};
  agent.expiry_timer.Bind(sim, sim::EventPriority::kTimerExpiry, kind, owner,
                          sim::EventFn([] {}));
}

}  // namespace crn::mac
