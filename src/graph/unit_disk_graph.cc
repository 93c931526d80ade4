#include "graph/unit_disk_graph.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "common/check.h"
#include "geom/spatial_grid.h"

namespace crn::graph {

UnitDiskGraph::UnitDiskGraph(std::vector<geom::Vec2> positions, geom::Aabb area,
                             double radius)
    : positions_(std::move(positions)), area_(area), radius_(radius) {
  CRN_CHECK(radius > 0.0);
  const auto n = static_cast<std::int32_t>(positions_.size());
  offsets_.assign(n + 1, 0);
  if (n == 0) return;

  const geom::SpatialGrid grid(positions_, area_, radius_);
  // The cells each disk query scans bound its neighbours, so one buffer of
  // the summed bounds takes every list without growing; the lists then
  // move once into an array of exactly their size.
  std::int64_t bound = 0;
  for (NodeId v = 0; v < n; ++v) bound += grid.CandidateCount(positions_[v], radius_);
  const std::unique_ptr<NodeId[]> lists(new NodeId[static_cast<std::size_t>(bound)]);
  NodeId* next = lists.get();
  for (NodeId v = 0; v < n; ++v) {
    NodeId* const first = next;
    grid.ForEachInDisk(positions_[v], radius_, [&](NodeId u) {
      if (u != v) *next++ = u;
    });
    // Sorted neighbor lists make HasEdge O(log d) and iteration
    // deterministic regardless of grid cell order.
    std::sort(first, next);
    offsets_[v + 1] = static_cast<std::int32_t>(next - lists.get());
  }
  adjacency_.assign(lists.get(), next);
}

bool UnitDiskGraph::HasEdge(NodeId a, NodeId b) const {
  const auto neighbors = Neighbors(a);
  return std::binary_search(neighbors.begin(), neighbors.end(), b);
}

bool UnitDiskGraph::IsConnected(NodeId root) const {
  const auto n = node_count();
  if (n == 0) return true;
  std::vector<char> visited(n, 0);
  // Every node reached so far, in discovery order; `next` walks it as a
  // FIFO, and each node enters once.
  std::vector<NodeId> frontier;
  frontier.reserve(static_cast<std::size_t>(n));
  frontier.push_back(root);
  visited[root] = 1;
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    for (NodeId u : Neighbors(frontier[next])) {
      if (!visited[u]) {
        visited[u] = 1;
        frontier.push_back(u);
      }
    }
  }
  return static_cast<std::int32_t>(frontier.size()) == n;
}

namespace {

// Order-sensitive FNV-1a fold, byte-wise over 64-bit values — the same
// construction as sim::TraceDigest, local because src/graph sits below
// src/sim in the layering.
struct FnvFold {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  void Mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001B3ULL;
    }
  }
};

}  // namespace

std::uint64_t UnitDiskGraph::StructureDigest() const {
  FnvFold fold;
  fold.Mix(static_cast<std::uint64_t>(positions_.size()));
  for (const geom::Vec2& p : positions_) {
    fold.Mix(std::bit_cast<std::uint64_t>(p.x));
    fold.Mix(std::bit_cast<std::uint64_t>(p.y));
  }
  for (const std::int32_t offset : offsets_) {
    fold.Mix(static_cast<std::uint64_t>(offset));
  }
  for (const NodeId neighbor : adjacency_) {
    fold.Mix(static_cast<std::uint64_t>(neighbor));
  }
  return fold.hash;
}

BfsLayering BreadthFirstLayering(const UnitDiskGraph& graph, NodeId root) {
  const auto n = graph.node_count();
  CRN_CHECK(root >= 0 && root < n);
  BfsLayering result;
  result.level.assign(n, -1);
  result.parent.assign(n, kInvalidNode);
  result.order.reserve(n);

  // The visitation order is the FIFO frontier itself: a node is appended
  // when discovered and expanded when `next` reaches it.
  result.order.push_back(root);
  result.level[root] = 0;
  for (std::size_t next = 0; next < result.order.size(); ++next) {
    const NodeId v = result.order[next];
    result.max_level = std::max(result.max_level, result.level[v]);
    for (NodeId u : graph.Neighbors(v)) {
      if (result.level[u] < 0) {
        result.level[u] = result.level[v] + 1;
        result.parent[u] = v;
        result.order.push_back(u);
      }
    }
  }
  CRN_CHECK(static_cast<std::int32_t>(result.order.size()) == n)
      << "secondary network graph must be connected (paper §III assumption); "
      << "reached " << result.order.size() << " of " << n << " nodes";
  return result;
}

}  // namespace crn::graph
