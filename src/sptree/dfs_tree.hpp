// DFS spanning trees, for the paper's Chapter-5 observation:
//   "if the spanning tree maintained in STNO is a DFS tree of the graph,
//    then the naming could be similar for both algorithms, provided the
//    respective ordering at individual nodes is the same."
// With port order as the common ordering, STNO over the port-order DFS
// tree assigns exactly the DFS preorder numbers — i.e. DFTNO's names.
// (tests/equivalence_test.cpp and the ablation-naming preset verify this.)
#ifndef SSNO_SPTREE_DFS_TREE_HPP
#define SSNO_SPTREE_DFS_TREE_HPP

#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"
#include "dftc/dftc.hpp"

namespace ssno {

/// Reference: the DFS tree obtained by a centralized depth-first
/// traversal from the root that scans neighbors in port order.
[[nodiscard]] std::vector<NodeId> portOrderDfsTree(const Graph& g);

/// DFS preorder numbers (visit order) of the same traversal; this is the
/// name assignment DFTNO stabilizes to.
[[nodiscard]] std::vector<int> portOrderDfsPreorder(const Graph& g);

/// Extracts the DFS tree from a live token circulation: stabilizes the
/// given substrate (it is self-stabilizing, so this just runs it), then
/// records each processor's adopted parent over one clean round.
/// Demonstrates that the circulation itself yields the spanning tree a
/// DFS-tree STNO would need.
[[nodiscard]] std::vector<NodeId> dfsTreeFromCirculation(Dftc& dftc,
                                                         StepCount maxMoves);

}  // namespace ssno

#endif  // SSNO_SPTREE_DFS_TREE_HPP
