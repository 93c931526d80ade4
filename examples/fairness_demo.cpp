// Fairness demo: watch Algorithm 1's line-12 rule (wait τ_c − t_i after
// every transmission) keep two competing SUs interleaved — Theorem 1's
// property 𝔓 in action — and see what the schedule looks like without it.
//
// Run: ./build/examples/fairness_demo
#include <iomanip>
#include <iostream>
#include <vector>

#include "common/rng.h"
#include "core/metrics.h"
#include "mac/collection_mac.h"
#include "sim/simulator.h"

namespace {

using namespace crn;
using mac::NodeId;

struct DemoResult {
  std::vector<NodeId> success_order;
  double duration_ms = 0.0;
  double jain = 0.0;
};

DemoResult RunDuel(bool fairness_wait, std::int32_t packets_each) {
  const geom::Aabb area = geom::Aabb::Square(300.0);
  const std::vector<geom::Vec2> positions{{150, 150}, {155, 150}, {150, 155}};
  const std::vector<NodeId> next_hop{0, 0, 0};

  mac::MacConfig config;
  config.pcr = 40.0;
  config.audit_stride = 0;
  config.fairness_wait = fairness_wait;

  pu::PrimaryConfig pu_config;
  pu_config.count = 0;  // quiet licensed band: pure SU-vs-SU contention
  pu_config.activity = 0.0;
  pu_config.slot = config.slot;

  sim::Simulator simulator;
  pu::PrimaryNetwork primary(pu_config, area, std::vector<geom::Vec2>{});
  mac::CollectionMac mac(simulator, primary, positions, area, 0, next_hop, config,
                         Rng(7));

  DemoResult result;
  std::vector<double> completion(2, 0.0);
  mac.AddObserver([&](const mac::MacEvent& event) {
    if (event.kind == mac::MacEvent::Kind::kTxEnd &&
        event.outcome == mac::TxOutcome::kSuccess) {
      result.success_order.push_back(event.node);
      completion[event.node - 1] = sim::ToMilliseconds(event.end);
    }
  });
  std::vector<NodeId> producers;
  for (std::int32_t i = 0; i < packets_each; ++i) {
    producers.push_back(1);
    producers.push_back(2);
  }
  mac.StartCollection(producers);
  simulator.Run();
  result.duration_ms = sim::ToMilliseconds(simulator.now());
  // Jain over per-flow completion times: 1.0 = both drained together.
  result.jain = core::JainIndex(completion);
  return result;
}

void Describe(const char* title, const DemoResult& result) {
  std::cout << title << "\n  order: ";
  for (NodeId node : result.success_order) {
    std::cout << (node == 1 ? 'A' : 'B');
  }
  std::int32_t longest = 0;
  std::int32_t current = 0;
  NodeId prev = -1;
  for (NodeId node : result.success_order) {
    current = node == prev ? current + 1 : 1;
    prev = node;
    longest = std::max(longest, current);
  }
  std::cout << "\n  finished in " << std::fixed << std::setprecision(1)
            << result.duration_ms << " ms; longest same-SU run " << longest
            << "; Jain completion index " << std::setprecision(4) << result.jain
            << "\n\n";
}

}  // namespace

int main() {
  std::cout << "Two SUs (A, B) beside the base station, 25 packets each, one\n"
               "contention cell. Successful transmissions in order:\n\n";
  Describe("With the fairness wait (Algorithm 1):", RunDuel(true, 25));
  Describe("Without it (line 12 removed):", RunDuel(false, 25));
  std::cout << "Theorem 1 guarantees a competitor transmits at most two packets\n"
               "before a contending neighbor transmits one — visible above as\n"
               "runs of length <= 2 when the fairness wait is on.\n";
  return 0;
}
