// Rooted undirected communication graphs (paper §2.1.1).
//
// A distributed system S = (V, E): V a set of processors, E bidirectional
// communication links.  All processors except the distinguished root are
// anonymous; processors refer to incident links only through local port
// numbers 0..Δp−1.  The Graph is immutable after construction; topology
// builders live in this header as static factories.
//
// Storage is pure CSR (compressed sparse row): one flat offsets array, one
// flat neighbor array and, parallel to it, a reverse-port array, so
// neighbors(p) is a contiguous span and the whole structure is three
// allocations regardless of n.  The reverse port answers the one
// cross-port read the algorithms make, "the port at my neighbour that
// leads back to me" (backPort), in O(1); portOf/adjacent are O(deg p) row
// scans for tests and validation.  Port numbering at each endpoint is
// edge-list insertion order.
#ifndef SSNO_CORE_GRAPH_HPP
#define SSNO_CORE_GRAPH_HPP

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace ssno {

class Graph {
 public:
  /// Builds a graph from an explicit edge list over nodes 0..n-1, in
  /// O(n + m).  Duplicate edges and self-loops are rejected.  `root`
  /// defaults to 0.
  Graph(int n, const std::vector<std::pair<NodeId, NodeId>>& edges,
        NodeId root = 0);

  [[nodiscard]] int nodeCount() const {
    return static_cast<int>(offsets_.size()) - 1;
  }
  [[nodiscard]] int edgeCount() const { return edge_count_; }
  [[nodiscard]] NodeId root() const { return root_; }

  /// Neighbors of p in port order (a contiguous CSR slice).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId p) const {
    const std::size_t begin = offsets_[static_cast<std::size_t>(p)];
    const std::size_t end = offsets_[static_cast<std::size_t>(p) + 1];
    return {nbrs_.data() + begin, end - begin};
  }

  [[nodiscard]] int degree(NodeId p) const {
    return static_cast<int>(offsets_[static_cast<std::size_t>(p) + 1] -
                            offsets_[static_cast<std::size_t>(p)]);
  }

  /// Maximum degree Δ.
  [[nodiscard]] int maxDegree() const { return max_degree_; }

  /// The neighbor reached from p through local port `port`.
  [[nodiscard]] NodeId neighborAt(NodeId p, Port port) const {
    return nbrs_[offsets_[static_cast<std::size_t>(p)] +
                 static_cast<std::size_t>(port)];
  }

  /// Flat index of p's port 0 in the CSR layout: (p, l) maps to slot
  /// portBase(p) + l.  This is the indexing scheme shared by all SoA
  /// per-port state columns (core/state_arena, Orientation::label).
  [[nodiscard]] std::size_t portBase(NodeId p) const {
    return offsets_[static_cast<std::size_t>(p)];
  }

  /// Total number of (node, port) slots, i.e. 2m.
  [[nodiscard]] std::size_t portSlotCount() const { return nbrs_.size(); }

  /// The port at q = neighborAt(p, l) whose link leads back to p, so
  /// neighborAt(q, backPort(p, l)) == p.  O(1).
  [[nodiscard]] Port backPort(NodeId p, Port l) const {
    return back_[offsets_[static_cast<std::size_t>(p)] +
                 static_cast<std::size_t>(l)];
  }

  /// p's back ports in port order, parallel to neighbors(p): entry l is
  /// backPort(p, l).
  [[nodiscard]] std::span<const Port> backPorts(NodeId p) const {
    const std::size_t begin = offsets_[static_cast<std::size_t>(p)];
    const std::size_t end = offsets_[static_cast<std::size_t>(p) + 1];
    return {back_.data() + begin, end - begin};
  }

  /// The local port of p whose link leads to q; kNoPort if not adjacent.
  /// O(deg p): a scan of p's row, for tests and validation.  Guards and
  /// statements that hold (p, l) use backPort instead.
  [[nodiscard]] Port portOf(NodeId p, NodeId q) const {
    const auto row = neighbors(p);
    const auto it = std::find(row.begin(), row.end(), q);
    return it == row.end() ? kNoPort : static_cast<Port>(it - row.begin());
  }

  [[nodiscard]] bool adjacent(NodeId p, NodeId q) const {
    return portOf(p, q) != kNoPort;
  }

  [[nodiscard]] bool isConnected() const;

  /// ---- Topology builders ----------------------------------------------
  /// All builders produce connected graphs rooted at node 0.
  static Graph ring(int n);
  static Graph path(int n);
  static Graph star(int n);  ///< node 0 = hub = root
  static Graph complete(int n);
  static Graph grid(int rows, int cols);
  static Graph torus(int rows, int cols);  ///< requires rows,cols >= 3
  static Graph hypercube(int dim);
  /// Complete graph on `cliqueSize` nodes with a path of `tailLen` hanging
  /// off it (the classic "lollipop"); root in the clique.
  static Graph lollipop(int cliqueSize, int tailLen);
  /// Balanced k-ary tree with n nodes (BFS numbering).
  static Graph kAryTree(int n, int k);
  /// Spine of length `spine`, each spine node with `legs` pendant leaves.
  static Graph caterpillar(int spine, int legs);
  /// Uniform random labelled tree (random Prüfer sequence).
  static Graph randomTree(int n, Rng& rng);
  /// Connected G(n, p): a random spanning tree plus independent extra edges.
  static Graph randomConnected(int n, double extraEdgeProb, Rng& rng);

  /// The 5-node example of Figures 3.1.1 (r, a, b, c, d).  Node ids:
  /// r=0, a=1, b=2, c=3, d=4; edges r-b, r-a, b-d, d-c, c-a ordered so the
  /// DFS in port order reproduces the figure's visit sequence
  /// r, b, d, c, (backtrack) then a.
  static Graph figure311();

  /// The 5-node cycle of Figure 2.2.1 used to illustrate the chordal
  /// labeling (ring of 5 with one chord).
  static Graph figure221();

 private:
  std::vector<std::size_t> offsets_;  // n+1 entries
  std::vector<NodeId> nbrs_;          // 2m entries, port order per node
  NodeId root_ = 0;
  std::vector<Port> back_;            // 2m entries, parallel to nbrs_
  int edge_count_ = 0;
  int max_degree_ = 0;
};

}  // namespace ssno

#endif  // SSNO_CORE_GRAPH_HPP
