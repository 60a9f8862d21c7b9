#include "sptree/tree_view.hpp"

#include "core/assert.hpp"
#include "core/graph_algo.hpp"

namespace ssno {

std::vector<NodeId> TreeView::childrenOf(NodeId p) const {
  std::vector<NodeId> kids;
  const Graph& g = treeGraph();
  for (NodeId q : g.neighbors(p))
    if (q != g.root() && parentOf(q) == p) kids.push_back(q);
  return kids;
}

TreeRole TreeView::roleOf(NodeId p) const {
  const Graph& g = treeGraph();
  if (p == g.root()) return TreeRole::kRoot;
  // Allocation-free: probe for any child instead of materializing the
  // child list.
  for (NodeId q : g.neighbors(p))
    if (q != g.root() && parentOf(q) == p) return TreeRole::kInternal;
  return TreeRole::kLeaf;
}

FixedTree::FixedTree(const Graph& graph, const std::vector<NodeId>& parent)
    : graph_(&graph) {
  SSNO_EXPECTS(isSpanningTree(graph, parent));
  // The root's parent is kNoNode, which no row holds: kNoPort.
  for (NodeId p = 0; p < graph.nodeCount(); ++p)
    parentPort_.push_back(graph.portOf(p, parent[static_cast<std::size_t>(p)]));
}

}  // namespace ssno
