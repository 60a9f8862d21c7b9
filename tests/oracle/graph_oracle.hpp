// Reference graph construction — the edge-by-edge definition that the
// CSR Graph must agree with, kept in the tests as its oracle: the edge
// list is validated in order (the first bad endpoint, self-loop or
// duplicate of an earlier edge, found through a std::set of undirected
// edges, is the one reported), each endpoint appends the other to its
// neighbour list, so ports follow edge-list order, and a directed-edge
// map gives every (p, q) the port of p whose link leads to q.
#ifndef SSNO_TESTS_ORACLE_GRAPH_ORACLE_HPP
#define SSNO_TESTS_ORACLE_GRAPH_ORACLE_HPP

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace ssno::oracle {

class ReferenceGraph {
 public:
  /// Throws std::invalid_argument with Graph's messages, for the same
  /// inputs.
  ReferenceGraph(int n, const std::vector<std::pair<NodeId, NodeId>>& edges,
                 NodeId root = 0) {
    if (n <= 0) throw std::invalid_argument("Graph: need at least one node");
    if (root < 0 || root >= n) throw std::invalid_argument("Graph: bad root");
    std::set<std::pair<NodeId, NodeId>> seen;
    for (const auto& [u, v] : edges) {
      if (u < 0 || u >= n || v < 0 || v >= n)
        throw std::invalid_argument("Graph: edge endpoint out of range");
      if (u == v) throw std::invalid_argument("Graph: self-loop");
      if (!seen.insert(std::minmax(u, v)).second)
        throw std::invalid_argument("Graph: duplicate edge");
    }
    adj_.resize(static_cast<std::size_t>(n));
    for (const auto& [u, v] : edges) {
      addDirected(u, v);
      addDirected(v, u);
    }
    edgeCount_ = static_cast<int>(edges.size());
  }

  [[nodiscard]] int nodeCount() const { return static_cast<int>(adj_.size()); }
  [[nodiscard]] int edgeCount() const { return edgeCount_; }

  /// Neighbours of p in port order.
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId p) const {
    return adj_[static_cast<std::size_t>(p)];
  }

  /// The port of p whose link leads to q; kNoPort if not adjacent.
  [[nodiscard]] Port portOf(NodeId p, NodeId q) const {
    const auto it = ports_.find({p, q});
    return it == ports_.end() ? kNoPort : it->second;
  }

 private:
  void addDirected(NodeId u, NodeId v) {
    auto& row = adj_[static_cast<std::size_t>(u)];
    ports_.emplace(std::pair{u, v}, static_cast<Port>(row.size()));
    row.push_back(v);
  }

  std::vector<std::vector<NodeId>> adj_;
  std::map<std::pair<NodeId, NodeId>, Port> ports_;  // (p, q) -> port at p
  int edgeCount_ = 0;
};

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_GRAPH_ORACLE_HPP
