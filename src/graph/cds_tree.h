// CDS-based data-collection tree (§IV-A), following the construction of
// Wan et al., "Minimum-Latency Aggregation Scheduling in Multihop Wireless
// Networks" (MOBIHOC 2009), the paper's reference [25]:
//
//  1. BFS from the base station; rank nodes by (BFS level, id).
//  2. Greedy MIS in rank order — the *dominators* (the base station first).
//  3. For each non-root dominator u in rank order, pick a neighbor c that is
//     adjacent to an already-connected dominator w of smaller rank (such a c
//     always exists via u's BFS parent); c becomes a *connector* with
//     parent w, and u's parent is c.
//  4. Every remaining node is a *dominatee* and picks an adjacent dominator
//     (lowest level, then lowest id) as parent.
//
// The resulting parent pointers form a tree rooted at the base station in
// which dominatees attach to dominators and dominators interleave with
// connectors — exactly the routing structure ADDC runs on.
#ifndef CRN_GRAPH_CDS_TREE_H_
#define CRN_GRAPH_CDS_TREE_H_

#include <cstdint>
#include <vector>

#include "graph/unit_disk_graph.h"

namespace crn::graph {

enum class NodeRole : std::uint8_t {
  kDominator,
  kConnector,
  kDominatee,
};

const char* ToString(NodeRole role);

// Every node in (BFS level, id) order: one counting pass over the levels,
// then the ids in ascending order into their level's range.
std::vector<NodeId> RankByLevel(const BfsLayering& bfs);

// Maximal independent set greedily in (level, id) rank order; the root is
// always selected first. Returned as a membership mask.
std::vector<char> MaximalIndependentSet(const UnitDiskGraph& graph,
                                        const BfsLayering& bfs);

class CdsTree {
 public:
  // Builds the tree; `graph` must be connected from `root`.
  CdsTree(const UnitDiskGraph& graph, NodeId root);

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] std::int32_t node_count() const {
    return static_cast<std::int32_t>(parent_.size());
  }
  [[nodiscard]] NodeRole role(NodeId node) const { return role_[node]; }
  [[nodiscard]] NodeId parent(NodeId node) const { return parent_[node]; }
  [[nodiscard]] const std::vector<NodeId>& children(NodeId node) const {
    return children_[node];
  }
  // Hop distance to the root along tree edges.
  [[nodiscard]] std::int32_t depth(NodeId node) const { return depth_[node]; }
  [[nodiscard]] std::int32_t max_depth() const { return max_depth_; }

  // Maximum number of children over all nodes (the Δ of Lemma 6 is this +1
  // counting the parent edge; we expose children count and let the theory
  // module add the +1).
  [[nodiscard]] std::int32_t max_children() const { return max_children_; }

  [[nodiscard]] std::int32_t dominator_count() const { return dominator_count_; }
  [[nodiscard]] std::int32_t connector_count() const { return connector_count_; }
  [[nodiscard]] std::int32_t dominatee_count() const { return dominatee_count_; }

  // Nodes on the CDS backbone (dominators + connectors).
  [[nodiscard]] bool IsBackbone(NodeId node) const {
    return role_[node] != NodeRole::kDominatee;
  }

  // Structural self-check used by tests: every node reaches the root through
  // parents, every tree edge is a graph edge, roles alternate as specified,
  // and the backbone is a connected dominating set. Throws ContractViolation
  // on the first violated invariant.
  void Validate(const UnitDiskGraph& graph) const;

  // Order-sensitive FNV-1a digest over roles, parents, and depths. Equal
  // digests certify a bit-identical tree; the scenario-prefab cache's
  // equivalence mode compares cached against freshly built trees with it.
  [[nodiscard]] std::uint64_t StructureDigest() const;

 private:
  NodeId root_;
  std::vector<NodeRole> role_;
  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<std::int32_t> depth_;
  std::int32_t max_depth_ = 0;
  std::int32_t max_children_ = 0;
  std::int32_t dominator_count_ = 0;
  std::int32_t connector_count_ = 0;
  std::int32_t dominatee_count_ = 0;
};

}  // namespace crn::graph

#endif  // CRN_GRAPH_CDS_TREE_H_
