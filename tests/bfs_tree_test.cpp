// Tests for the self-stabilizing BFS spanning tree substrate: silent
// configuration = BFS tree, convergence under every daemon (including
// the unfair adversarial one — the property STNO relies on), exhaustive
// model checks, children/role derivation.
#include "sptree/bfs_tree.hpp"

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/graph.hpp"
#include "core/graph_algo.hpp"
#include "core/scheduler.hpp"
#include "mc_check.hpp"

namespace ssno {
namespace {

TEST(BfsTree, SilentConfigurationIsBfsTree) {
  for (auto g : {Graph::ring(7), Graph::grid(3, 3), Graph::complete(5),
                 Graph::lollipop(4, 3), Graph::figure311()}) {
    BfsTree tree(g);
    Rng rng(1);
    tree.randomize(rng);
    RoundRobinDaemon daemon;
    Simulator sim(tree, daemon, rng);
    const RunStats stats = sim.runToQuiescence(1'000'000);
    ASSERT_TRUE(stats.terminal);
    EXPECT_TRUE(tree.isLegitimate());
    const auto want = bfsDistances(g, g.root());
    for (NodeId p = 0; p < g.nodeCount(); ++p) {
      EXPECT_EQ(tree.distOf(p), want[static_cast<std::size_t>(p)])
          << "node " << p;
      if (p != g.root()) {
        const NodeId parent = tree.parentOf(p);
        EXPECT_EQ(tree.distOf(parent), tree.distOf(p) - 1);
      }
    }
    std::vector<NodeId> parents(static_cast<std::size_t>(g.nodeCount()));
    for (NodeId p = 0; p < g.nodeCount(); ++p)
      parents[static_cast<std::size_t>(p)] = tree.parentOf(p);
    EXPECT_TRUE(isSpanningTree(g, parents));
  }
}

TEST(BfsTree, ConvergesUnderUnfairDaemon) {
  // Chapter 5: STNO only needs an unfair daemon; that hinges on the
  // spanning tree substrate converging without fairness.
  const Graph g = Graph::grid(3, 3);
  BfsTree tree(g);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    tree.randomize(rng);
    AdversarialDaemon daemon;
    Simulator sim(tree, daemon, rng);
    const RunStats stats = sim.runToQuiescence(1'000'000);
    EXPECT_TRUE(stats.terminal);
    EXPECT_TRUE(tree.isLegitimate());
  }
}

TEST(BfsTreeExhaustive, StrictConvergenceOnSmallGraphs) {
  // Fairness::kNone — the strongest criterion: every execution under any
  // daemon converges (matching the unfair-daemon claim).
  for (auto g : {Graph::path(3), Graph::ring(3), Graph::path(4),
                 Graph::star(4), Graph::ring(4),
                 Graph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}})}) {
    const mc::Result res = checkerFor<BfsTree>(g).checkFullSpace(
        checkOptions(1u << 22, Fairness::kNone));
    EXPECT_TRUE(res.ok) << "n=" << g.nodeCount() << ": " << res.failure;
  }
}

TEST(BfsTree, HeightMatchesEccentricity) {
  for (auto g : {Graph::path(6), Graph::star(6), Graph::ring(8)}) {
    BfsTree tree(g);
    Rng rng(3);
    tree.randomize(rng);
    RoundRobinDaemon daemon;
    Simulator sim(tree, daemon, rng);
    (void)sim.runToQuiescence(1'000'000);
    EXPECT_EQ(tree.currentHeight(), eccentricity(g, g.root()));
  }
}

TEST(BfsTree, ChildrenAndRoles) {
  const Graph g = Graph::star(5);
  BfsTree tree(g);
  Rng rng(4);
  tree.randomize(rng);
  RoundRobinDaemon daemon;
  Simulator sim(tree, daemon, rng);
  (void)sim.runToQuiescence(100'000);
  EXPECT_EQ(tree.roleOf(0), TreeRole::kRoot);
  EXPECT_EQ(static_cast<int>(tree.childrenOf(0).size()), 4);
  for (NodeId p = 1; p < 5; ++p) {
    EXPECT_EQ(tree.roleOf(p), TreeRole::kLeaf);
    EXPECT_EQ(tree.parentOf(p), 0);
  }
}

TEST(BfsTree, ChildrenInPortOrder) {
  const Graph g = Graph::star(5);
  BfsTree tree(g);
  Rng rng(5);
  tree.randomize(rng);
  RoundRobinDaemon daemon;
  Simulator sim(tree, daemon, rng);
  (void)sim.runToQuiescence(100'000);
  EXPECT_EQ(tree.childrenOf(0), (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(BfsTree, ConvergenceTimeScalesWithDiameterRounds) {
  // Silent BFS construction takes O(diam) asynchronous rounds; check the
  // round count stays well under the node count on a long path.
  const Graph g = Graph::path(30);
  BfsTree tree(g);
  Rng rng(6);
  tree.randomize(rng);
  SynchronousDaemon daemon;
  Simulator sim(tree, daemon, rng);
  const RunStats stats = sim.runToQuiescence(10'000'000);
  ASSERT_TRUE(stats.terminal);
  // Distances can rise at most to n−1, one level per synchronous round.
  EXPECT_LE(stats.rounds, 2 * g.nodeCount());
}

TEST(BfsTree, CodecRoundTrips) {
  const Graph g = Graph::figure311();
  BfsTree tree(g);
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (std::uint64_t c = 0; c < tree.localStateCount(p); ++c) {
      tree.decodeNode(p, c);
      EXPECT_EQ(tree.encodeNode(p), c);
    }
  }
}

TEST(BfsTree, FixedTreeViewMatches) {
  const Graph g = Graph::kAryTree(7, 2);
  const std::vector<NodeId> parents{kNoNode, 0, 0, 1, 1, 2, 2};
  const FixedTree fixed(g, parents);
  EXPECT_EQ(fixed.parentOf(0), kNoNode);
  EXPECT_EQ(fixed.parentOf(5), 2);
  EXPECT_EQ(fixed.roleOf(0), TreeRole::kRoot);
  EXPECT_EQ(fixed.roleOf(1), TreeRole::kInternal);
  EXPECT_EQ(fixed.roleOf(6), TreeRole::kLeaf);
  EXPECT_EQ(fixed.childrenOf(1), (std::vector<NodeId>{3, 4}));
}

TEST(BfsTree, FixedTreeRejectsNonTree) {
  const Graph g = Graph::ring(4);
  EXPECT_DEATH({ FixedTree bad(g, {kNoNode, 2, 1, 2}); }, "");
}

}  // namespace
}  // namespace ssno
