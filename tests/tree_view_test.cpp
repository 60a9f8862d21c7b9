// TreeView::parentPort on every tree: the port of p whose link leads to
// its parent, kNoPort at the root, and the same value in the tree's
// parent-port column at every other node.  STNO reads Start_{A_p}[p] through it
// (graph().backPort(p, parentPort(p))), so it must be the tree's own
// parent pointer through randomization, moves and raw-state faults.
#include "sptree/tree_view.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "sptree/bfs_tree.hpp"
#include "sptree/dfs_tree.hpp"
#include "sptree/lex_dfs_tree.hpp"

namespace ssno {
namespace {

/// parentPort(p) == portOf(p, parentOf(p)) for every non-root p, the
/// parent port is the `par` entry at `parIndex` of p's raw state, and the
/// parent-port column STNO's kernel reads holds it.
template <class Tree>
void expectParentPortsMatch(const Tree& tree, std::size_t parIndex) {
  const Graph& g = tree.treeGraph();
  ASSERT_EQ(tree.parentPorts().size(),
            static_cast<std::size_t>(g.nodeCount()));
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    if (p == g.root()) {
      EXPECT_EQ(tree.parentPort(p), kNoPort);
      EXPECT_EQ(tree.parentOf(p), kNoNode);
      continue;
    }
    const Port l = tree.parentPort(p);
    EXPECT_EQ(l, g.portOf(p, tree.parentOf(p))) << "node " << p;
    EXPECT_EQ(l, tree.rawNode(p)[parIndex]) << "node " << p;
    EXPECT_EQ(l, tree.parentPorts()[static_cast<std::size_t>(p)])
        << "node " << p;
  }
}

std::vector<Graph> graphs() {
  Rng rng(0x7EE);
  return {Graph::ring(8),          Graph::grid(3, 4),
          Graph::complete(5),      Graph::star(9),
          Graph::figure311(),      Graph::randomConnected(12, 0.3, rng),
          Graph::randomTree(10, rng)};
}

/// Randomizes `tree`, then checks parent ports after the randomize, after
/// raw-state faults copied from a second randomized instance, and after
/// every move of a central-daemon run.
template <class Tree>
void checkTree(std::uint64_t seed, std::size_t parIndex) {
  for (const Graph& g : graphs()) {
    SCOPED_TRACE("n=" + std::to_string(g.nodeCount()));
    Tree tree(g);
    Tree other(g);
    Rng rng(seed + static_cast<std::uint64_t>(g.nodeCount()));
    tree.randomize(rng);
    expectParentPortsMatch(tree, parIndex);
    other.randomize(rng);
    for (int k = 0; k < 2 * g.nodeCount(); ++k) {
      const NodeId p = rng.below(g.nodeCount());
      tree.setRawNode(p, other.rawNode(p));
      expectParentPortsMatch(tree, parIndex);
    }
    CentralDaemon daemon;
    Simulator sim(tree, daemon, rng);
    sim.setMoveObserver(
        [&](const Move&) { expectParentPortsMatch(tree, parIndex); });
    (void)sim.runToQuiescence(5'000);
    expectParentPortsMatch(tree, parIndex);
  }
}

// Raw layouts: BfsTree {dist, par}, LexDfsTree {par, hasWord, len, ...}.
TEST(TreeView, BfsTreeParentPortTracksParent) { checkTree<BfsTree>(11, 1); }

TEST(TreeView, LexDfsTreeParentPortTracksParent) {
  checkTree<LexDfsTree>(12, 0);
}

TEST(TreeView, FixedDfsTreeParentPorts) {
  for (const Graph& g : graphs()) {
    SCOPED_TRACE("n=" + std::to_string(g.nodeCount()));
    const std::vector<NodeId> parents = portOrderDfsTree(g);
    const FixedTree tree(g, parents);
    for (NodeId p = 0; p < g.nodeCount(); ++p) {
      const NodeId parent = parents[static_cast<std::size_t>(p)];
      EXPECT_EQ(tree.parentOf(p), parent) << "node " << p;
      EXPECT_EQ(tree.parentPort(p),
                p == g.root() ? kNoPort : g.portOf(p, parent))
          << "node " << p;
      if (p != g.root()) {
        EXPECT_EQ(tree.parentPorts()[static_cast<std::size_t>(p)],
                  tree.parentPort(p))
            << "node " << p;
      }
    }
  }
}

}  // namespace
}  // namespace ssno
