#include "routing/coolest.h"

#include <cmath>
#include <limits>
#include <queue>
#include <tuple>

#include "common/check.h"
#include "geom/spatial_grid.h"

namespace crn::routing {

const char* ToString(TemperatureMetric metric) {
  switch (metric) {
    case TemperatureMetric::kAccumulated:
      return "accumulated";
    case TemperatureMetric::kHighest:
      return "highest";
    case TemperatureMetric::kMixed:
      return "mixed";
  }
  return "unknown";
}

std::vector<double> NodeTemperatures(const std::vector<geom::Vec2>& positions,
                                     const pu::PrimaryNetwork& primary,
                                     double sensing_range) {
  CRN_CHECK(sensing_range > 0.0);
  const geom::SpatialGrid grid(primary.positions(), primary.area(), sensing_range);
  std::vector<double> temperatures;
  temperatures.reserve(positions.size());
  for (const geom::Vec2& pos : positions) {
    std::int32_t nearby = 0;
    grid.ForEachInDisk(pos, sensing_range, [&](pu::PuId) { ++nearby; });
    temperatures.push_back(NodeTemperature(nearby, primary.config().activity));
  }
  return temperatures;
}

double NodeTemperature(std::int32_t pus_in_range, double activity) {
  return 1.0 - std::pow(1.0 - activity, static_cast<double>(pus_in_range));
}

namespace {

// Composite Dijkstra label; which fields dominate depends on the metric.
struct Label {
  double accumulated = std::numeric_limits<double>::infinity();
  double peak = std::numeric_limits<double>::infinity();
  std::int32_t hops = std::numeric_limits<std::int32_t>::max();

  [[nodiscard]] std::tuple<double, std::int32_t, double> AccKey() const {
    return {accumulated, hops, peak};
  }
  [[nodiscard]] std::tuple<double, std::int32_t, double> PeakKey() const {
    return {peak, hops, accumulated};
  }
  [[nodiscard]] std::tuple<double, double, std::int32_t> MixedKey() const {
    return {peak, accumulated, hops};
  }
};

bool Better(const Label& a, const Label& b, TemperatureMetric metric) {
  switch (metric) {
    case TemperatureMetric::kAccumulated:
      return a.AccKey() < b.AccKey();
    case TemperatureMetric::kHighest:
      return a.PeakKey() < b.PeakKey();
    case TemperatureMetric::kMixed:
      return a.MixedKey() < b.MixedKey();
  }
  return false;
}

}  // namespace

std::vector<graph::NodeId> CoolestNextHops(const graph::UnitDiskGraph& graph,
                                           const std::vector<double>& temperatures,
                                           graph::NodeId sink,
                                           TemperatureMetric metric) {
  const auto n = graph.node_count();
  CRN_CHECK(sink >= 0 && sink < n);
  CRN_CHECK(static_cast<std::int32_t>(temperatures.size()) == n);

  std::vector<Label> best(n);
  std::vector<graph::NodeId> next_hop(n, graph::kInvalidNode);
  std::vector<char> settled(n, 0);
  best[sink] = Label{0.0, 0.0, 0};
  next_hop[sink] = sink;

  // Lazy Dijkstra keyed by the metric; (label-key, node id) makes pops
  // deterministic.
  struct QueueEntry {
    Label label;
    graph::NodeId node;
  };
  auto worse = [metric](const QueueEntry& a, const QueueEntry& b) {
    if (Better(b.label, a.label, metric)) return true;
    if (Better(a.label, b.label, metric)) return false;
    return a.node > b.node;
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, decltype(worse)> queue(worse);
  queue.push({best[sink], sink});

  while (!queue.empty()) {
    const QueueEntry entry = queue.top();
    queue.pop();
    const graph::NodeId u = entry.node;
    if (settled[u]) continue;
    settled[u] = 1;
    for (graph::NodeId v : graph.Neighbors(u)) {
      if (settled[v]) continue;
      // Entering v from the sink side: v's own temperature joins the path.
      Label candidate;
      candidate.accumulated = best[u].accumulated + temperatures[v];
      candidate.peak = std::max(best[u].peak, temperatures[v]);
      candidate.hops = best[u].hops + 1;
      if (Better(candidate, best[v], metric)) {
        best[v] = candidate;
        next_hop[v] = u;
        queue.push({candidate, v});
      }
    }
  }

  for (graph::NodeId v = 0; v < n; ++v) {
    CRN_CHECK(next_hop[v] != graph::kInvalidNode)
        << "node " << v << " cannot reach the base station";
  }
  return next_hop;
}

PathSummary SummarizePath(const std::vector<graph::NodeId>& next_hop,
                          const std::vector<double>& temperatures,
                          graph::NodeId source, graph::NodeId sink) {
  PathSummary summary;
  graph::NodeId cursor = source;
  const auto n = static_cast<std::int32_t>(next_hop.size());
  while (cursor != sink) {
    CRN_CHECK(summary.hops < n) << "next-hop cycle from " << source;
    summary.accumulated += temperatures[cursor];
    summary.highest = std::max(summary.highest, temperatures[cursor]);
    cursor = next_hop[cursor];
    ++summary.hops;
  }
  return summary;
}

}  // namespace crn::routing
