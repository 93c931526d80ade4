// "Coolest path" routing — the paper's baseline, from Huang, Lu, Li & Fang,
// "Coolest Path: Spectrum Mobility Aware Routing Metrics in Cognitive Ad
// Hoc Networks" (ICDCS 2011), the paper's reference [17], modified for
// convergecast ("necessary modification" per §V): every SU routes its
// packets to the base station along the path whose *spectrum temperature*
// is best.
//
// The spectrum temperature of a node is the long-run probability that the
// licensed spectrum around it is occupied by PUs — hotter nodes see fewer
// transmission opportunities. [17] proposes three path metrics, all of
// which we implement:
//   * kAccumulated — minimize the sum of node temperatures along the path
//     (the "lowest total spectrum utilization" path);
//   * kHighest     — minimize the hottest node on the path (bottleneck);
//   * kMixed       — lexicographic: bottleneck first, accumulated second
//     (the "most balanced" path).
//
// Packets then traverse the resulting next-hop tree using the *same* MAC as
// ADDC, so measured differences are attributable to routing structure —
// exactly the comparison the paper's §V makes.
#ifndef CRN_ROUTING_COOLEST_H_
#define CRN_ROUTING_COOLEST_H_

#include <vector>

#include "graph/unit_disk_graph.h"
#include "pu/primary_network.h"

namespace crn::routing {

enum class TemperatureMetric {
  kAccumulated,
  kHighest,
  kMixed,
};

const char* ToString(TemperatureMetric metric);

// Per-node spectrum temperature: 1 − (1 − p_t)^{#PUs within sensing_range},
// i.e. the per-slot probability that at least one PU inside the node's
// carrier-sensing disk is active. This is the model-exact value an SU would
// measure by long-run sensing (kept analytic for determinism).
std::vector<double> NodeTemperatures(const std::vector<geom::Vec2>& positions,
                                     const pu::PrimaryNetwork& primary,
                                     double sensing_range);

// The temperature of a node with `pus_in_range` PUs inside its sensing
// disk, at per-slot activity p_t = `activity` — the formula above, for
// callers that already hold the counts (a PU sensing table's row sizes).
double NodeTemperature(std::int32_t pus_in_range, double activity);

// Computes a next-hop-toward-sink table over `graph` optimizing `metric`.
// Ties are broken by hop count and then node id, making the result
// deterministic. next_hop[sink] = sink.
std::vector<graph::NodeId> CoolestNextHops(const graph::UnitDiskGraph& graph,
                                           const std::vector<double>& temperatures,
                                           graph::NodeId sink,
                                           TemperatureMetric metric);

// Path cost diagnostics used by tests and the ablation bench.
struct PathSummary {
  double accumulated = 0.0;
  double highest = 0.0;
  std::int32_t hops = 0;
};

// Follows next_hop from `source` to `sink`, aggregating temperatures of
// every node from `source` (inclusive) up to the sink (exclusive) — the
// same cost model CoolestNextHops optimizes.
PathSummary SummarizePath(const std::vector<graph::NodeId>& next_hop,
                          const std::vector<double>& temperatures,
                          graph::NodeId source, graph::NodeId sink);

}  // namespace crn::routing

#endif  // CRN_ROUTING_COOLEST_H_
