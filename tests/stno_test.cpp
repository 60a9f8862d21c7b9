// Behavioral tests for STNO (Algorithm 4.1.2): bottom-up weights,
// top-down interval naming (Figure 4.1.1), edge labeling of tree AND
// non-tree edges, the erratum regression for corrupt Start arrays, and
// exhaustive model checks of the orientation layer.
#include "orientation/stno.hpp"

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/daemon.hpp"
#include "core/graph.hpp"
#include "core/scheduler.hpp"
#include "mc_check.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno {
namespace {

void stabilize(Stno& stno, std::uint64_t seed = 1) {
  // Chapter 5: STNO works under an unfair daemon — use the adversarial
  // one on purpose.
  AdversarialDaemon daemon;
  Rng rng(seed);
  Simulator sim(stno, daemon, rng);
  const RunStats stats = sim.runToQuiescence(10'000'000);
  ASSERT_TRUE(stats.terminal);
  ASSERT_TRUE(stno.isLegitimate());
}

TEST(Stno, Figure411WeightsAndNames) {
  // Figure 4.1.1's 5-node tree: root with children {1, 2}; node 1 with
  // children {3, 4}.  Weights: leaves 1, node1 3, root 5.  Names: root 0;
  // node1 gets [1..3] -> 1; node3 -> 2; node4 -> 3; node2 -> 4.
  const Graph g(5, {{0, 1}, {0, 2}, {1, 3}, {1, 4}});
  Stno stno(g, {kNoNode, 0, 0, 1, 1});
  Rng rng(2);
  stno.randomize(rng);
  stabilize(stno);
  EXPECT_EQ(stno.weight(3), 1);
  EXPECT_EQ(stno.weight(4), 1);
  EXPECT_EQ(stno.weight(2), 1);
  EXPECT_EQ(stno.weight(1), 3);
  EXPECT_EQ(stno.weight(0), 5);
  EXPECT_EQ(stno.name(0), 0);
  EXPECT_EQ(stno.name(1), 1);
  EXPECT_EQ(stno.name(3), 2);
  EXPECT_EQ(stno.name(4), 3);
  EXPECT_EQ(stno.name(2), 4);
}

TEST(Stno, NamesArePreorderIntervalsOnFixedTree) {
  // With port-order children, interval distribution assigns each node its
  // preorder index in the tree.
  const Graph g = Graph::kAryTree(7, 2);
  Stno stno(g, portOrderDfsTree(g));
  Rng rng(3);
  stno.randomize(rng);
  stabilize(stno);
  const auto pre = portOrderDfsPreorder(g);
  for (NodeId p = 0; p < g.nodeCount(); ++p)
    EXPECT_EQ(stno.name(p), pre[static_cast<std::size_t>(p)]);
}

TEST(Stno, LabelsTreeAndNonTreeEdges) {
  // "it orients all edges—both tree and non-tree edges—of the network."
  const Graph g = Graph::figure221();  // ring of 5 + chord
  Stno stno(g);                        // BFS-tree substrate
  Rng rng(4);
  stno.randomize(rng);
  stabilize(stno);
  const Orientation o = stno.orientation();
  EXPECT_TRUE(satisfiesSpec(o));  // SP2 quantifies over ALL incident edges
  EXPECT_TRUE(isLocallyOriented(o));
  EXPECT_TRUE(hasEdgeSymmetry(o));
}

TEST(Stno, LegitimacyImpliesSpecAndSilence) {
  Rng topo(5);
  for (auto g : {Graph::ring(7), Graph::grid(3, 3),
                 Graph::randomConnected(12, 0.3, topo)}) {
    Stno stno(g);
    Rng rng(6);
    stno.randomize(rng);
    stabilize(stno);
    EXPECT_TRUE(satisfiesSpec(stno.orientation()));
    EXPECT_TRUE(stno.enabledMoves().empty());  // silent protocol
  }
}

TEST(Stno, ErratumCorruptStartArrayIsNotStable) {
  // DESIGN.md erratum 1: under the paper's printed guards, a corrupt
  // Start array at a correctly-named node is a stable SP1 violation.
  // Our strengthened InvalidNodelabel flags it; this regression builds
  // exactly that configuration and checks the protocol repairs it.
  const Graph g = Graph::path(3);
  Stno stno(g, {kNoNode, 0, 1});
  Rng rng(7);
  stno.randomize(rng);
  stabilize(stno);
  ASSERT_EQ(stno.name(0), 0);
  ASSERT_EQ(stno.name(1), 1);
  ASSERT_EQ(stno.name(2), 2);
  // Corrupt the root's Start entry for child 1 to 2, and align the
  // child names so every printed-guard predicate is satisfied:
  // eta_1 := 2 = Start_0[1], Start_1[2] := 0... -> names {0,2,0} would
  // collide; use the stable-but-out-of-range variant {0,2,3 mod 3=0}?
  // Simplest faithful reproduction: Start_0[1]=2, eta_1=2, Start_1[2]=0,
  // eta_2=0 — pairwise parent-consistent, duplicate name with the root.
  auto raw1 = stno.rawNode(0);
  // raw layout: [weight, eta, start..., pi...]; port of child 1 at root=0.
  raw1[2] = 2;
  stno.setRawNode(0, raw1);
  auto raw2 = stno.rawNode(1);
  raw2[1] = 2;  // eta_1
  raw2[3] = 0;  // Start_1[child 2]  (ports of node1: 0->node0, 1->node2)
  stno.setRawNode(1, raw2);
  auto raw3 = stno.rawNode(2);
  raw3[1] = 0;  // eta_2 — duplicates the root's name
  stno.setRawNode(2, raw3);
  ASSERT_FALSE(satisfiesSpec(stno.orientation()));
  // Under the printed guards this would be silent; with the erratum fix
  // the root's NodeLabel action is enabled and the system recovers.
  EXPECT_FALSE(stno.enabledMoves().empty());
  stabilize(stno);
  EXPECT_TRUE(satisfiesSpec(stno.orientation()));
}

TEST(StnoExhaustive, FixedTreeOrientationLayerOnPath3) {
  // Full product space of the orientation layer over a legitimate fixed
  // tree, under the strictest (unfair) convergence criterion — matching
  // Chapter 5's claim that STNO needs no fairness.
  // 4.78M configurations: 4 workers (verdicts and counts do not depend
  // on the thread count).
  const mc::Result res =
      checkerFor<Stno>(Graph::path(3), std::vector<NodeId>{kNoNode, 0, 1})
          .checkFullSpace(checkOptions(6'000'000, Fairness::kNone, 4));
  EXPECT_TRUE(res.ok) << res.failure;
}

TEST(StnoExhaustive, ComposedWithBfsTreeOnPath2) {
  // Substrate and overlay together, full product space.
  const mc::Result res = checkerFor<Stno>(Graph::path(2))
                             .checkFullSpace(checkOptions(1u << 12,
                                                          Fairness::kNone));
  EXPECT_TRUE(res.ok) << res.failure;
}

TEST(StnoReachable, ComposedWithBfsTreeOnPath3FromSampledSeeds) {
  // The full composed product (38M configurations) is out of unit-test
  // reach; check the downward cones of a dense random sample instead.
  // The COMPOSED system needs weak fairness: an unfair daemon can starve
  // the tree-fix action forever while the orientation layer chases a
  // broken (cyclic) parent structure with no fixpoint — see the pinned
  // regression below.
  Stno stno(Graph::path(3));
  Rng rng(0xBEEF);
  std::vector<std::vector<std::uint64_t>> seeds;
  for (int i = 0; i < 4000; ++i) {
    stno.randomize(rng);
    seeds.push_back(stno.encodeConfiguration());
  }
  // About 697k states: 4 workers.
  const mc::Result res =
      checkerFor<Stno>(Graph::path(3))
          .checkReachable(seeds,
                          checkOptions(4'000'000, Fairness::kWeaklyFair, 4));
  EXPECT_TRUE(res.ok) << res.failure;
}

// Finding (DESIGN.md, deviation note 5): Chapter 5 claims STNO works
// with an unfair daemon.  That holds for the orientation layer over a
// STABLE spanning tree (the Fairness::kNone checks above), but NOT for
// the composition with the tree protocol: from a configuration whose
// parent pointers form a 2-cycle, the overlay's Weight/NodeLabel actions
// stay enabled forever (cyclic constraints have no fixpoint), so an
// unfair daemon can starve TreeFix indefinitely.  The checker exhibits
// the cycle; weak fairness between layers restores convergence.
TEST(StnoReachable, ComposedSystemIsNotUnfairDaemonConvergent) {
  Stno stno(Graph::path(3));
  // Plant the parent 2-cycle between nodes 1 and 2 with mismatched
  // names/weights, as found by the checker.
  // Raw layout per node: [bfs: dist, par(port)] + [W, eta, start..., pi...];
  // the root's bfs entries are pinned at 0.
  stno.setRawNode(1, {2, 1, 3, 1, 1, 2, 1, 1});  // par port 1 -> node 2
  stno.setRawNode(2, {2, 0, 2, 0, 1, 1});        // par port 0 -> node 1
  stno.setRawNode(0, {0, 0, 1, 0, 2, 1});
  const mc::Result res =
      checkerFor<Stno>(Graph::path(3))
          .checkReachable({stno.encodeConfiguration()},
                          checkOptions(4'000'000, Fairness::kNone));
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("cycle"), std::string::npos) << res.failure;
}

TEST(StnoReachable, FixedTreeOnTriangleWithNonTreeEdge) {
  // Triangle: tree edges 0-1, 0-2 plus the non-tree edge 1-2 — the
  // smallest instance where SP2 covers a non-tree edge.
  Stno stno(Graph::ring(3), {kNoNode, 0, 0});
  Rng rng(0xF00D);
  std::vector<std::vector<std::uint64_t>> seeds;
  for (int i = 0; i < 4000; ++i) {
    stno.randomize(rng);
    seeds.push_back(stno.encodeConfiguration());
  }
  const mc::Result res =
      checkerFor<Stno>(Graph::ring(3), std::vector<NodeId>{kNoNode, 0, 0})
          .checkReachable(seeds, checkOptions(4'000'000, Fairness::kNone));
  EXPECT_TRUE(res.ok) << res.failure;
}

TEST(Stno, WeightsCapAtN) {
  // Corrupt weights above n must clamp rather than overflow the domain.
  const Graph g = Graph::path(3);
  Stno stno(g, {kNoNode, 0, 1});
  auto raw = stno.rawNode(1);
  raw[0] = 3;  // weight = n while the leaf below claims weight 3 too
  stno.setRawNode(1, raw);
  Rng rng(8);
  AdversarialDaemon daemon;
  Simulator sim(stno, daemon, rng);
  (void)sim.runToQuiescence(100'000);
  EXPECT_EQ(stno.weight(0), 3);
  EXPECT_EQ(stno.weight(1), 2);
  EXPECT_EQ(stno.weight(2), 1);
}

TEST(Stno, StartEntriesMatchDistributeSemantics) {
  // Paper example check: root 0 with children weights (3, 1) hands out
  // Start values 1 and 4.
  const Graph g(5, {{0, 1}, {0, 2}, {1, 3}, {1, 4}});
  Stno stno(g, {kNoNode, 0, 0, 1, 1});
  Rng rng(9);
  stno.randomize(rng);
  stabilize(stno);
  EXPECT_EQ(stno.startAt(0, 0), 1);  // child 1 (weight 3)
  EXPECT_EQ(stno.startAt(0, 1), 4);  // child 2 (weight 1)
}

TEST(Stno, SubstrateBitsAccountedSeparately) {
  const Graph g = Graph::star(8);
  Stno withTree(g);
  Stno fixed(g, portOrderDfsTree(g));
  EXPECT_GT(withTree.substrateBits(1), 0.0);
  EXPECT_EQ(fixed.substrateBits(1), 0.0);
  EXPECT_NEAR(withTree.orientationBits(0),
              (2.0 + 2.0 * 7) * std::log2(8.0), 1e-9);
}

}  // namespace
}  // namespace ssno
