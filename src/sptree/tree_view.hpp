// TreeView — the rooted-spanning-tree interface STNO reads.
//
// The paper's STNO assumes "an underlying protocol maintains a spanning
// tree of the rooted network" exposing, at each processor, its ancestor
// A_p and descendant set D_p, and a role classification root / internal /
// leaf.  Both the self-stabilizing BFS tree (bfs_tree.hpp) and fixed
// trees (e.g. a DFS tree extracted from the token circulation) implement
// this interface.  Besides A_p a tree exposes the port of p that leads to
// it, so STNO reads the parent's entry for p, Start_{A_p}[p], at
// treeGraph().backPort(p, parentPort(p)) in O(1).  Each tree implements
// one accessor, the whole parent-port column: STNO's batch guard kernel
// fetches it once per batch and tests "q = neighborAt(p, l) is p's
// child" as parentPorts()[q] == backPort(p, l), with no call per
// neighbour.
#ifndef SSNO_SPTREE_TREE_VIEW_HPP
#define SSNO_SPTREE_TREE_VIEW_HPP

#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace ssno {

enum class TreeRole { kRoot, kInternal, kLeaf };

class TreeView {
 public:
  virtual ~TreeView() = default;

  /// The parent-port column, one entry per processor: entry p is the
  /// port of p whose link leads to its parent A_p.  The root's entry is a
  /// placeholder (0 or kNoPort), so readers test the root first.  The one
  /// accessor each tree implements.
  [[nodiscard]] virtual std::span<const Port> parentPorts() const = 0;

  /// The port of p whose link leads to its parent A_p (kNoPort for the
  /// root).
  [[nodiscard]] Port parentPort(NodeId p) const {
    return p == treeGraph().root()
               ? kNoPort
               : parentPorts()[static_cast<std::size_t>(p)];
  }

  /// A_p: the processor's current parent (kNoNode for the root).
  [[nodiscard]] NodeId parentOf(NodeId p) const {
    const Port l = parentPort(p);
    return l == kNoPort ? kNoNode : treeGraph().neighborAt(p, l);
  }

  /// D_p: processors that currently designate p as their parent, in p's
  /// port order (this ordering makes STNO's Distribute deterministic).
  [[nodiscard]] std::vector<NodeId> childrenOf(NodeId p) const;

  [[nodiscard]] TreeRole roleOf(NodeId p) const;

  [[nodiscard]] virtual const Graph& treeGraph() const = 0;
};

/// An immutable spanning tree given by a parent vector (parent[root] ==
/// kNoNode).  Used for STNO-on-a-fixed-tree experiments and for model
/// checking the orientation layer with the substrate held legitimate.
class FixedTree final : public TreeView {
 public:
  FixedTree(const Graph& graph, const std::vector<NodeId>& parent);

  [[nodiscard]] std::span<const Port> parentPorts() const override {
    return parentPort_;
  }
  [[nodiscard]] const Graph& treeGraph() const override { return *graph_; }

 private:
  const Graph* graph_;
  std::vector<Port> parentPort_;  // computed once, at construction
};

}  // namespace ssno

#endif  // SSNO_SPTREE_TREE_VIEW_HPP
