// Tests for the self-stabilizing lexicographic DFS spanning tree:
// silent fixpoint = port-order DFS tree, convergence from arbitrary
// states (exhaustively on small graphs), and the end-to-end pipeline
// STNO-over-LexDfsTree ≡ DFTNO with both layers self-stabilizing.
#include "sptree/lex_dfs_tree.hpp"

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/daemon.hpp"
#include "core/graph.hpp"
#include "core/graph_algo.hpp"
#include "core/scheduler.hpp"
#include "mc_check.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno {
namespace {

std::vector<NodeId> stabilizedParents(const Graph& g, std::uint64_t seed) {
  LexDfsTree tree(g);
  Rng rng(seed);
  tree.randomize(rng);
  RoundRobinDaemon daemon;
  Simulator sim(tree, daemon, rng);
  const RunStats stats = sim.runToQuiescence(10'000'000);
  EXPECT_TRUE(stats.terminal);
  EXPECT_TRUE(tree.isLegitimate());
  std::vector<NodeId> parents(static_cast<std::size_t>(g.nodeCount()));
  for (NodeId p = 0; p < g.nodeCount(); ++p)
    parents[static_cast<std::size_t>(p)] = tree.parentOf(p);
  return parents;
}

TEST(LexDfsTree, SilentFixpointIsPortOrderDfsTree) {
  Rng topo(1);
  for (const Graph& g :
       {Graph::ring(6), Graph::figure311(), Graph::figure221(),
        Graph::grid(3, 3), Graph::complete(5), Graph::lollipop(4, 3),
        Graph::randomConnected(10, 0.3, topo),
        Graph::randomConnected(12, 0.2, topo)}) {
    const auto parents = stabilizedParents(g, 7);
    EXPECT_EQ(parents, portOrderDfsTree(g)) << "n=" << g.nodeCount();
    EXPECT_TRUE(isSpanningTree(g, parents));
  }
}

TEST(LexDfsTree, WordsAreTreePathPorts) {
  const Graph g = Graph::figure311();
  LexDfsTree tree(g);
  Rng rng(2);
  tree.randomize(rng);
  RoundRobinDaemon daemon;
  Simulator sim(tree, daemon, rng);
  (void)sim.runToQuiescence(1'000'000);
  // Node c (=3) is reached root -(port0)-> b -(port1)-> d -(port1)-> c.
  const auto& w = tree.word(3);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, (std::vector<Port>{0, 1, 1}));
  EXPECT_EQ(tree.word(0), std::vector<Port>{});  // root: ε
}

TEST(LexDfsTree, ConvergesUnderEveryDaemon) {
  Rng topo(3);
  const Graph g = Graph::randomConnected(9, 0.3, topo);
  for (DaemonKind kind :
       {DaemonKind::kCentral, DaemonKind::kDistributed,
        DaemonKind::kSynchronous, DaemonKind::kRoundRobin,
        DaemonKind::kAdversarial}) {
    LexDfsTree tree(g);
    Rng rng(4);
    for (int trial = 0; trial < 10; ++trial) {
      tree.randomize(rng);
      auto daemon = makeDaemon(kind);
      Simulator sim(tree, *daemon, rng);
      const RunStats stats = sim.runToQuiescence(10'000'000);
      EXPECT_TRUE(stats.terminal) << daemon->name();
      EXPECT_TRUE(tree.isLegitimate());
    }
  }
}

TEST(LexDfsTreeExhaustive, StrictConvergenceOnSmallGraphs) {
  for (auto g : {Graph::path(3), Graph::ring(3), Graph::path(4),
                 Graph::star(4),
                 Graph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}})}) {
    const mc::Result res = checkerFor<LexDfsTree>(g).checkFullSpace(
        checkOptions(1u << 24, Fairness::kNone));
    EXPECT_TRUE(res.ok) << "n=" << g.nodeCount() << ": " << res.failure;
  }
}

TEST(LexDfsTree, RawRoundTrips) {
  const Graph g = Graph::grid(2, 3);
  LexDfsTree a(g), b(g);
  Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    a.randomize(rng);
    b.setRawConfiguration(a.rawConfiguration());
    EXPECT_EQ(b.rawConfiguration(), a.rawConfiguration());
  }
}

TEST(LexDfsTree, EndToEndStnoOverLexTreeMatchesDftno) {
  // The Chapter-5 observation with BOTH layers self-stabilizing:
  // stabilize the lex DFS tree from an arbitrary state, extract it, run
  // STNO over it, and compare with DFTNO's orientation.
  Rng topo(6);
  for (const Graph& g : {Graph::grid(3, 3), Graph::figure221(),
                         Graph::randomConnected(10, 0.3, topo)}) {
    const auto parents = stabilizedParents(g, 8);
    Stno stno(g, parents);
    Rng rng(9);
    stno.randomize(rng);
    AdversarialDaemon daemon;
    Simulator sim(stno, daemon, rng);
    ASSERT_TRUE(sim.runToQuiescence(20'000'000).terminal);

    Dftno dftno(g);
    Rng rng2(10);
    dftno.randomize(rng2);
    RoundRobinDaemon d2;
    Simulator sim2(dftno, d2, rng2);
    ASSERT_TRUE(
        sim2.runUntil([&dftno] { return dftno.isLegitimate(); }, 40'000'000)
            .converged);
    EXPECT_EQ(stno.orientation().name, dftno.orientation().name);
    EXPECT_EQ(stno.orientation().label, dftno.orientation().label);
  }
}

TEST(LexDfsTree, SpaceIsLinearInN) {
  // The DFS-tree substrate costs Θ(n·log Δ) bits — the classic price
  // that makes the paper's token-based DFTNO (O(log n) substrate) the
  // cheaper route to DFS naming (compare the space preset).
  const Graph small = Graph::ring(8);
  const Graph big = Graph::ring(32);
  LexDfsTree a(small), b(big);
  EXPECT_GT(b.stateBits(1), 3.0 * a.stateBits(1));
}

}  // namespace
}  // namespace ssno
