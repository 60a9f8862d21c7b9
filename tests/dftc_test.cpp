// Behavioral tests for the self-stabilizing depth-first token circulation
// substrate: clean-round semantics, deterministic DFS order, legitimacy
// orbit, convergence from arbitrary states, fairness of visits.
#include "dftc/dftc.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include <map>
#include <vector>

#include "core/daemon.hpp"
#include "core/graph.hpp"
#include "core/scheduler.hpp"
#include "exp/scenario.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno {
namespace {

std::string daemonTag(DaemonKind kind) {
  std::string s = daemonKindName(kind);
  s.erase(std::remove(s.begin(), s.end(), '-'), s.end());
  return s;
}

/// One round of the legitimate circulation.
struct CleanRound {
  std::vector<NodeId> forwards;  ///< Forward receivers, in order
  int advances = 0;
  int moves = 0;  ///< every move after the round's Start, to the next Start
};

/// Runs the deterministic legitimate execution for `rounds` full rounds
/// starting from the clean boundary.
std::vector<CleanRound> cleanRounds(Dftc& dftc, int rounds) {
  dftc.resetClean();
  std::vector<CleanRound> visits;
  int roundIdx = -1;
  const auto inRound = [&] { return roundIdx >= 0 && roundIdx < rounds; };
  while (roundIdx < rounds) {
    const auto moves = dftc.enabledMoves();
    EXPECT_EQ(moves.size(), 1u) << "legitimate execution must be deterministic";
    if (moves.size() != 1u) break;
    const Move m = moves.front();
    if (m.action == Dftc::kStart) {
      ++roundIdx;
      if (roundIdx < rounds) visits.emplace_back();
    } else if (inRound()) {
      ++visits.back().moves;
      if (m.action == Dftc::kForward) visits.back().forwards.push_back(m.node);
      if (m.action == Dftc::kAdvance) ++visits.back().advances;
    }
    dftc.execute(m.node, m.action);
  }
  return visits;
}

TEST(DftcCleanRound, VisitsEveryNodeExactlyOnce) {
  // The substrate preset's topologies include complete:8 (m = 28) and
  // er:16:0.3:41 (m = 50): a non-tree edge costs guard reads, not moves,
  // so a clean round is 2(n − 1) moves besides its Start on any graph.
  std::vector<Graph> graphs = {Graph::ring(6), Graph::path(5),
                               Graph::star(5), Graph::complete(4),
                               Graph::figure311()};
  for (const exp::Scenario& s : exp::makePreset("substrate"))
    if (s.protocol == exp::ProtocolKind::kDftc)
      graphs.push_back(s.topology.build());
  ASSERT_EQ(graphs.size(), 10u);
  for (const Graph& graph : graphs) {
    Dftc dftc(graph);
    const auto rounds = cleanRounds(dftc, 3);
    ASSERT_EQ(rounds.size(), 3u);
    const int n = graph.nodeCount();
    for (const CleanRound& round : rounds) {
      EXPECT_EQ(static_cast<int>(round.forwards.size()), n - 1)
          << "every non-root node is forwarded to exactly once";
      std::map<NodeId, int> count;
      for (NodeId p : round.forwards) count[p]++;
      for (const auto& [p, c] : count) EXPECT_EQ(c, 1) << "node " << p;
      EXPECT_EQ(round.advances, n - 1) << "every child backtracks once";
      EXPECT_EQ(round.moves, 2 * (n - 1)) << "n = " << n;
    }
  }
}

TEST(DftcCleanRound, OrderIsDeterministicAcrossRounds) {
  Dftc dftc(Graph::figure311());
  const auto rounds = cleanRounds(dftc, 4);
  for (std::size_t i = 1; i < rounds.size(); ++i)
    EXPECT_EQ(rounds[i].forwards, rounds[0].forwards);
}

TEST(DftcCleanRound, OrderMatchesPortOrderDfs) {
  for (auto graph : {Graph::ring(5), Graph::figure311(), Graph::grid(2, 3),
                     Graph::complete(4)}) {
    Dftc dftc(graph);
    const auto rounds = cleanRounds(dftc, 1);
    const std::vector<int> pre = portOrderDfsPreorder(graph);
    // Forward order must match preorder: the k-th forwarded node has
    // preorder number k (the root is number 0 and is not forwarded to).
    for (std::size_t k = 0; k < rounds[0].forwards.size(); ++k)
      EXPECT_EQ(pre[static_cast<std::size_t>(rounds[0].forwards[k])],
                static_cast<int>(k) + 1);
  }
}

TEST(DftcCleanRound, Figure311VisitOrder) {
  // Figure 3.1.1: r(0) forwards to b(2), then d(4), then c(3), then a(1).
  Dftc dftc(Graph::figure311());
  const auto rounds = cleanRounds(dftc, 1);
  EXPECT_EQ(rounds[0].forwards, (std::vector<NodeId>{2, 4, 3, 1}));
}

TEST(DftcOrbit, CleanBoundaryIsLegitimate) {
  Dftc dftc(Graph::ring(4));
  dftc.resetClean();
  EXPECT_TRUE(dftc.isLegitimate());
}

TEST(DftcOrbit, LegitimacyIsClosedUnderExecution) {
  Dftc dftc(Graph::grid(2, 3));
  dftc.resetClean();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(dftc.isLegitimate()) << "at move " << i;
    const auto moves = dftc.enabledMoves();
    ASSERT_FALSE(moves.empty());
    dftc.execute(moves.front().node, moves.front().action);
  }
}

TEST(DftcOrbit, CorruptStateIsIllegitimate) {
  Dftc dftc(Graph::ring(5));
  dftc.resetClean();
  // A lone pointer with no token justification is off-orbit.
  dftc.decodeNode(2, dftc.encodeNode(2) + 1);
  EXPECT_FALSE(dftc.isLegitimate());
}

TEST(DftcToken, ExactlyOneTokenHolderOnOrbit) {
  Dftc dftc(Graph::figure311());
  dftc.resetClean();
  for (int i = 0; i < 100; ++i) {
    int holders = 0;
    for (NodeId p = 0; p < dftc.graph().nodeCount(); ++p)
      holders += dftc.holdsToken(p) ? 1 : 0;
    EXPECT_EQ(holders, 1) << "move " << i;
    const auto moves = dftc.enabledMoves();
    dftc.execute(moves.front().node, moves.front().action);
  }
}

class DftcConvergence
    : public ::testing::TestWithParam<std::tuple<int, DaemonKind>> {};

TEST_P(DftcConvergence, StabilizesFromArbitraryStates) {
  const auto [seed, kind] = GetParam();
  Rng topoRng(static_cast<std::uint64_t>(seed) * 977 + 13);
  const std::vector<Graph> graphs = {
      Graph::ring(5),
      Graph::path(6),
      Graph::star(5),
      Graph::complete(4),
      Graph::grid(2, 3),
      Graph::randomConnected(8, 0.25, topoRng),
  };
  for (const Graph& g : graphs) {
    Dftc dftc(g);
    Rng rng(static_cast<std::uint64_t>(seed));
    dftc.randomize(rng);
    auto daemon = makeDaemon(kind);
    Simulator sim(dftc, *daemon, rng);
    const RunStats stats =
        sim.runUntil([&dftc] { return dftc.isLegitimate(); }, 200'000);
    EXPECT_TRUE(stats.converged)
        << "n=" << g.nodeCount() << " daemon=" << daemon->name()
        << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDaemons, DftcConvergence,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(DaemonKind::kCentral,
                                         DaemonKind::kDistributed,
                                         DaemonKind::kSynchronous,
                                         DaemonKind::kRoundRobin)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             daemonTag(std::get<1>(info.param));
    });

TEST(DftcCodec, EncodeDecodeRoundTrips) {
  Dftc dftc(Graph::figure311());
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    dftc.randomize(rng);
    const auto codes = dftc.encodeConfiguration();
    Dftc other{Graph::figure311()};
    other.decodeConfiguration(codes);
    EXPECT_EQ(other.encodeConfiguration(), codes);
    for (NodeId p = 0; p < 5; ++p)
      EXPECT_EQ(other.dumpNode(p), dftc.dumpNode(p));
  }
}

TEST(DftcCodec, LocalStateCountsAreTight) {
  const Graph g = Graph::figure311();
  Dftc dftc(g);
  // Every code below localStateCount decodes and re-encodes to itself.
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (std::uint64_t c = 0; c < dftc.localStateCount(p); ++c) {
      dftc.decodeNode(p, c);
      EXPECT_EQ(dftc.encodeNode(p), c);
    }
  }
}

TEST(DftcSpace, StateBitsAreLogarithmic) {
  const Graph g = Graph::ring(16);
  Dftc dftc(g);
  // Non-root ring node: log2(3) + 1 + log2(16) + log2(2) ≈ 7.6 bits.
  EXPECT_NEAR(dftc.stateBits(1), std::log2(3.0) + 1 + 4 + 1, 1e-9);
  // Root stores only S and col.
  EXPECT_NEAR(dftc.stateBits(0), std::log2(3.0) + 1, 1e-9);
}

TEST(Dftc, RejectsTrivialAndDisconnected) {
  EXPECT_DEATH({ Dftc d(Graph(1, {})); }, "");
  EXPECT_DEATH({ Dftc d(Graph(4, {{0, 1}, {2, 3}})); }, "");
}

}  // namespace
}  // namespace ssno
