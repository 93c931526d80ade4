#include "graph/cds_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <tuple>

#include "common/check.h"

namespace crn::graph {

const char* ToString(NodeRole role) {
  switch (role) {
    case NodeRole::kDominator:
      return "dominator";
    case NodeRole::kConnector:
      return "connector";
    case NodeRole::kDominatee:
      return "dominatee";
  }
  return "unknown";
}

std::vector<NodeId> RankByLevel(const BfsLayering& bfs) {
  const auto n = static_cast<NodeId>(bfs.level.size());
  // level_start[l] is where level l's nodes begin in the ranking.
  std::vector<std::int32_t> level_start(static_cast<std::size_t>(bfs.max_level) + 2, 0);
  for (NodeId v = 0; v < n; ++v) {
    CRN_CHECK(bfs.level[v] >= 0) << "node " << v << " is unreached";
    ++level_start[bfs.level[v] + 1];
  }
  std::partial_sum(level_start.begin(), level_start.end(), level_start.begin());
  std::vector<NodeId> ranked(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) ranked[level_start[bfs.level[v]]++] = v;
  return ranked;
}

namespace {

std::vector<char> GreedyMis(const UnitDiskGraph& graph, const std::vector<NodeId>& ranked) {
  const auto n = graph.node_count();
  std::vector<char> in_mis(n, 0);
  std::vector<char> dominated(n, 0);
  for (NodeId v : ranked) {
    if (dominated[v]) continue;
    in_mis[v] = 1;
    dominated[v] = 1;
    for (NodeId u : graph.Neighbors(v)) {
      dominated[u] = 1;
    }
  }
  return in_mis;
}

}  // namespace

std::vector<char> MaximalIndependentSet(const UnitDiskGraph& graph,
                                        const BfsLayering& bfs) {
  return GreedyMis(graph, RankByLevel(bfs));
}

CdsTree::CdsTree(const UnitDiskGraph& graph, NodeId root) : root_(root) {
  const auto n = graph.node_count();
  CRN_CHECK(root >= 0 && root < n);
  const BfsLayering bfs = BreadthFirstLayering(graph, root);
  const std::vector<NodeId> ranked = RankByLevel(bfs);
  const std::vector<char> in_mis = GreedyMis(graph, ranked);
  CRN_CHECK(in_mis[root]) << "root has BFS rank 0 and must be a dominator";

  role_.assign(n, NodeRole::kDominatee);
  parent_.assign(n, kInvalidNode);
  {
    // Connect dominators in rank order. `connected[w]` means w is a
    // dominator already attached to the tree.
    std::vector<char> connected(n, 0);
    connected[root] = 1;
    for (NodeId u : ranked) {
      if (!in_mis[u]) continue;
      role_[u] = NodeRole::kDominator;
      if (u == root) continue;
      // Find connector c adjacent to u whose neighborhood contains a
      // connected dominator w; among candidates prefer the (level, id)
      // smallest w, then the smallest c, to keep the tree shallow and the
      // construction deterministic.
      NodeId best_c = kInvalidNode;
      NodeId best_w = kInvalidNode;
      auto better = [&](NodeId w, NodeId c) {
        if (best_w == kInvalidNode) return true;
        const auto lhs = std::make_tuple(bfs.level[w], w, bfs.level[c], c);
        const auto rhs = std::make_tuple(bfs.level[best_w], best_w, bfs.level[best_c], best_c);
        return lhs < rhs;
      };
      for (NodeId c : graph.Neighbors(u)) {
        if (in_mis[c]) continue;  // connectors are never dominators
        for (NodeId w : graph.Neighbors(c)) {
          if (w != u && in_mis[w] && connected[w] && better(w, c)) {
            best_c = c;
            best_w = w;
          }
        }
      }
      CRN_CHECK(best_c != kInvalidNode)
          << "no connector found for dominator " << u
          << "; the greedy-by-BFS-rank MIS guarantees one exists";
      role_[best_c] = NodeRole::kConnector;
      // A connector may serve several dominators; its parent is fixed by
      // the first dominator that claims it (parents must be unique).
      if (parent_[best_c] == kInvalidNode) {
        parent_[best_c] = best_w;
      }
      parent_[u] = best_c;
      connected[u] = 1;
    }
  }

  // Dominatees: attach to the adjacent dominator with the smallest
  // (level, id).
  for (NodeId v = 0; v < n; ++v) {
    if (role_[v] != NodeRole::kDominatee) continue;
    NodeId best = kInvalidNode;
    for (NodeId u : graph.Neighbors(v)) {
      if (role_[u] != NodeRole::kDominator) continue;
      if (best == kInvalidNode ||
          std::make_pair(bfs.level[u], u) < std::make_pair(bfs.level[best], best)) {
        best = u;
      }
    }
    CRN_CHECK(best != kInvalidNode)
        << "node " << v << " has no adjacent dominator; MIS must dominate";
    parent_[v] = best;
  }

  // Children lists, depths, counts.
  children_.assign(n, {});
  for (NodeId v = 0; v < n; ++v) {
    if (v == root_) continue;
    CRN_CHECK(parent_[v] != kInvalidNode) << "node " << v << " is unattached";
    children_[parent_[v]].push_back(v);
  }
  depth_.assign(n, -1);
  depth_[root_] = 0;
  std::queue<NodeId> frontier;
  frontier.push(root_);
  std::int32_t reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    max_depth_ = std::max(max_depth_, depth_[v]);
    max_children_ = std::max(max_children_, static_cast<std::int32_t>(children_[v].size()));
    for (NodeId c : children_[v]) {
      depth_[c] = depth_[v] + 1;
      frontier.push(c);
      ++reached;
    }
  }
  CRN_CHECK(reached == n) << "parent pointers contain a cycle";

  for (NodeId v = 0; v < n; ++v) {
    switch (role_[v]) {
      case NodeRole::kDominator:
        ++dominator_count_;
        break;
      case NodeRole::kConnector:
        ++connector_count_;
        break;
      case NodeRole::kDominatee:
        ++dominatee_count_;
        break;
    }
  }
}

void CdsTree::Validate(const UnitDiskGraph& graph) const {
  const auto n = node_count();
  CRN_CHECK(role_[root_] == NodeRole::kDominator);
  CRN_CHECK(parent_[root_] == kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (v == root_) continue;
    const NodeId p = parent_[v];
    CRN_CHECK(p != kInvalidNode) << "node " << v;
    CRN_CHECK(graph.HasEdge(v, p)) << "tree edge " << v << "->" << p
                                   << " is not a graph edge";
    CRN_CHECK(depth_[v] == depth_[p] + 1) << "node " << v;
    switch (role_[v]) {
      case NodeRole::kDominatee:
        CRN_CHECK(role_[p] == NodeRole::kDominator)
            << "dominatee " << v << " must attach to a dominator";
        break;
      case NodeRole::kDominator:
        CRN_CHECK(role_[p] == NodeRole::kConnector)
            << "dominator " << v << " must attach through a connector";
        break;
      case NodeRole::kConnector:
        CRN_CHECK(role_[p] == NodeRole::kDominator)
            << "connector " << v << " must attach to a dominator";
        break;
    }
  }
  // Backbone forms a dominating set: every node is a dominator or adjacent
  // to one.
  for (NodeId v = 0; v < n; ++v) {
    if (role_[v] == NodeRole::kDominator) continue;
    bool dominated = false;
    for (NodeId u : graph.Neighbors(v)) {
      if (role_[u] == NodeRole::kDominator) {
        dominated = true;
        break;
      }
    }
    CRN_CHECK(dominated) << "node " << v << " not dominated";
  }
  // Backbone connectivity: BFS over backbone-induced subgraph from root.
  std::vector<char> visited(n, 0);
  std::queue<NodeId> frontier;
  frontier.push(root_);
  visited[root_] = 1;
  std::int32_t backbone_total = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (IsBackbone(v)) ++backbone_total;
  }
  std::int32_t backbone_reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId u : graph.Neighbors(v)) {
      if (IsBackbone(u) && !visited[u]) {
        visited[u] = 1;
        ++backbone_reached;
        frontier.push(u);
      }
    }
  }
  CRN_CHECK(backbone_reached == backbone_total)
      << "CDS backbone is not connected: " << backbone_reached << " of "
      << backbone_total;
}

std::uint64_t CdsTree::StructureDigest() const {
  // Same FNV-1a fold as UnitDiskGraph::StructureDigest.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(root_));
  mix(static_cast<std::uint64_t>(parent_.size()));
  for (std::size_t v = 0; v < parent_.size(); ++v) {
    mix(static_cast<std::uint64_t>(role_[v]));
    mix(static_cast<std::uint64_t>(parent_[v]));
    mix(static_cast<std::uint64_t>(depth_[v]));
  }
  return hash;
}

}  // namespace crn::graph
