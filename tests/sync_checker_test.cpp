// Synchronous-successor expansion in the model checker: the explorer at
// 1, 2 and 8 threads must agree with the brute-force exploration oracle
// (tests/oracle/explore_oracle.hpp, whose successors are composed from
// the pre-step configuration) and with hand-computable synchronous
// dynamics, with verdicts and exploration statistics bit-identical
// across thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/checker.hpp"
#include "core/enabled_view.hpp"
#include "dftc/dftc.hpp"
#include "mc/explorer.hpp"
#include "oracle/explore_oracle.hpp"
#include "orientation/stno.hpp"
#include "sptree/bfs_tree.hpp"
#include "toy_protocols.hpp"

namespace ssno {
namespace {

TEST(SimultaneousSelection, EnumeratesCartesianProduct) {
  // Two nodes with masks {0,2} and {1}: selections in lex order.
  NodeMasks masks;
  masks.emplace_back(0, (std::uint64_t{1} << 0) | (std::uint64_t{1} << 2));
  masks.emplace_back(3, std::uint64_t{1} << 1);
  std::vector<std::vector<Move>> seen;
  std::vector<Move> scratch;
  forEachSimultaneousSelection(masks, scratch,
                               [&](std::span<const Move> set) {
                                 seen.emplace_back(set.begin(), set.end());
                               });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::vector<Move>{{0, 0}, {3, 1}}));
  EXPECT_EQ(seen[1], (std::vector<Move>{{0, 2}, {3, 1}}));
  // Empty snapshot: no selections.
  NodeMasks empty;
  int calls = 0;
  forEachSimultaneousSelection(empty, scratch,
                               [&](std::span<const Move>) { ++calls; });
  EXPECT_EQ(calls, 0);
}

/// Checks `factory`'s protocol under synchronous steps — from `seeds`,
/// or over the full space when there are none — with the explorer at 1,
/// 2 and 8 threads.  Each result must agree with the oracle's verdict
/// and be bit-identical to the 1-thread one, which is returned.
mc::Result checkSynchronously(
    const mc::ParallelChecker::Factory& factory,
    const mc::ParallelChecker::Legit& legit,
    const std::vector<std::vector<std::uint64_t>>& seeds = {}) {
  const std::unique_ptr<Protocol> ref = factory();
  const oracle::ExploreVerdict truth = oracle::bruteForceExplore(
      *ref, legit, seeds.empty() ? oracle::allConfigurations(*ref) : seeds,
      Fairness::kNone, /*synchronous=*/true);
  mc::ParallelChecker checker(factory, legit);
  mc::Result first;
  for (const int threads : {1, 2, 8}) {
    mc::Options opt;
    opt.threads = threads;
    opt.synchronousSteps = true;
    const mc::Result res = seeds.empty() ? checker.checkFullSpace(opt)
                                         : checker.checkReachable(seeds, opt);
    EXPECT_EQ(oracle::disagreement(res, truth), "") << "@" << threads;
    if (threads == 1) {
      first = res;
      continue;
    }
    EXPECT_EQ(res.ok, first.ok) << "@" << threads;
    EXPECT_EQ(res.failure, first.failure) << "@" << threads;
    EXPECT_EQ(res.trace, first.trace) << "@" << threads;
    EXPECT_EQ(res.statesExplored, first.statesExplored) << "@" << threads;
    EXPECT_EQ(res.transitions, first.transitions) << "@" << threads;
    EXPECT_EQ(res.peakFrontier, first.peakFrontier) << "@" << threads;
  }
  return first;
}

template <class P>
mc::ParallelChecker::Factory factoryOf(Graph g, auto... args) {
  return [g, args...] { return std::make_unique<P>(g, args...); };
}

bool allZero(Protocol& p) { return static_cast<ZeroProtocol&>(p).allZero(); }

TEST(SyncChecker, ZeroProtocolConvergesSynchronously) {
  // Under the synchronous daemon every non-zero node zeroes at once:
  // every configuration reaches all-zero in ONE step; the space is
  // closed, deadlock-free and acyclic.
  const mc::Result res =
      checkSynchronously(factoryOf<ZeroProtocol>(Graph::path(3), 3), allZero);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 27u);
}

TEST(SyncChecker, OscillatorCycleIsFoundSynchronously) {
  const mc::Result res = checkSynchronously(
      factoryOf<OscillateProtocol>(Graph::path(2)), [](Protocol& p) {
        return static_cast<OscillateProtocol&>(p).allZero();
      });
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("cycle"), std::string::npos) << res.failure;
}

TEST(SyncChecker, DeadlockIsFoundSynchronously) {
  const mc::Result res = checkSynchronously(
      factoryOf<StuckProtocol>(Graph::path(2)), [](Protocol& p) {
        return static_cast<StuckProtocol&>(p).allZero();
      });
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos) << res.failure;
}

TEST(SyncChecker, FairnessModesAreRejected) {
  mc::ParallelChecker checker(factoryOf<ZeroProtocol>(Graph::path(2), 2),
                              allZero);
  mc::Options opt;
  opt.synchronousSteps = true;
  opt.fairness = Fairness::kWeaklyFair;
  const mc::Result res = checker.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("synchronous"), std::string::npos);
}

// Synchronous verdicts, full space under Fairness::kNone, for the
// protocols whose synchronous steps run through their two-phase batch
// (the checker expands each successor with execute and undo): BfsTree
// on path:3 and ring:4, and STNO over BfsTree on path:2 all converge.
// The counts pin the explored graph.
bool bfsLegit(Protocol& p) { return static_cast<BfsTree&>(p).isLegitimate(); }

TEST(SyncChecker, ExplorerAgreesWithOracleOnBfsTree) {
  const mc::Result res =
      checkSynchronously(factoryOf<BfsTree>(Graph::path(3)), bfsLegit);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 8u);
  EXPECT_EQ(res.transitions, 10u);
}

TEST(SyncChecker, BfsTreeConvergesSynchronouslyOnRing4) {
  const mc::Result res =
      checkSynchronously(factoryOf<BfsTree>(Graph::ring(4)), bfsLegit);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 216u);
  EXPECT_EQ(res.transitions, 528u);
}

TEST(SyncChecker, StnoOverBfsTreeConvergesSynchronouslyOnPath2) {
  const mc::Result res =
      checkSynchronously(factoryOf<Stno>(Graph::path(2)), [](Protocol& p) {
        return static_cast<Stno&>(p).isLegitimate();
      });
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 256u);
  EXPECT_EQ(res.transitions, 672u);
}

/// DFTC on a tiny ring under synchronous steps: whatever the verdict,
/// the explorer must agree with the oracle (the synchronous daemon is
/// not part of the paper's assumptions, so the verdict itself is a
/// discovery, not an expectation).
TEST(SyncChecker, ExplorerAgreesWithOracleOnDftcRing) {
  (void)checkSynchronously(factoryOf<Dftc>(Graph::ring(3)), [](Protocol& p) {
    return static_cast<Dftc&>(p).isLegitimate();
  });
}

/// Reachable-mode synchronous expansion: from a single seed the
/// synchronous ZeroProtocol reaches exactly {seed, all-zero}.
TEST(SyncChecker, ReachableSynchronousFromSeed) {
  const mc::Result res = checkSynchronously(
      factoryOf<ZeroProtocol>(Graph::path(3), 3), allZero, {{2, 0, 1}});
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 2u);  // the seed and all-zero
}

}  // namespace
}  // namespace ssno
