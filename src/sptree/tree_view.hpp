// TreeView — the rooted-spanning-tree interface STNO reads.
//
// The paper's STNO assumes "an underlying protocol maintains a spanning
// tree of the rooted network" exposing, at each processor, its ancestor
// A_p and descendant set D_p, and a role classification root / internal /
// leaf.  Both the self-stabilizing BFS tree (bfs_tree.hpp) and fixed
// trees (e.g. a DFS tree extracted from the token circulation) implement
// this interface.  Besides A_p a tree exposes the port of p that leads to
// it, so STNO reads the parent's entry for p, Start_{A_p}[p], at
// treeGraph().backPort(p, parentPort(p)) in O(1).
#ifndef SSNO_SPTREE_TREE_VIEW_HPP
#define SSNO_SPTREE_TREE_VIEW_HPP

#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace ssno {

enum class TreeRole { kRoot, kInternal, kLeaf };

class TreeView {
 public:
  virtual ~TreeView() = default;

  /// The port of p whose link leads to its parent A_p (kNoPort for the
  /// root): the one accessor each tree implements.
  [[nodiscard]] virtual Port parentPort(NodeId p) const = 0;

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

  [[nodiscard]] Port parentPort(NodeId p) const override {
    return parentPort_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const Graph& treeGraph() const override { return *graph_; }

 private:
  const Graph* graph_;
  std::vector<Port> parentPort_;  // computed once, at construction
};

}  // namespace ssno

#endif  // SSNO_SPTREE_TREE_VIEW_HPP
