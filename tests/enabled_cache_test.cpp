// Equivalence suite for the incremental enabled-move cache: every
// protocol × {central, distributed, fair} daemon × several topologies,
// run twice from the same seed — once with the incremental EnabledCache
// (the default) and once with a forced naive full rescan — must produce
// bit-identical move sequences, step/round counts, and final raw
// configurations.  Because daemons draw from the RNG based on the
// enabled set they are handed, any discrepancy in the incremental set
// (content OR order) diverges the runs immediately; fault injection
// mid-run additionally exercises the dirty paths of randomizeNode and
// decodeNode.
#include "core/enabled_cache.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/fault.hpp"
#include "core/graph.hpp"
#include "core/scheduler.hpp"
#include "dftc/dftc.hpp"
#include "exp/topology.hpp"
#include "orientation/baseline.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "sptree/bfs_tree.hpp"
#include "sptree/dfs_tree.hpp"
#include "sptree/lex_dfs_tree.hpp"
#include "toy_protocols.hpp"

namespace ssno {
namespace {

struct ProtocolCase {
  std::string name;
  std::function<std::unique_ptr<Protocol>(const Graph&)> make;
};

std::vector<ProtocolCase> protocolCases() {
  return {
      {"dftc", [](const Graph& g) { return std::make_unique<Dftc>(g); }},
      {"bfs-tree",
       [](const Graph& g) { return std::make_unique<BfsTree>(g); }},
      {"lex-dfs-tree",
       [](const Graph& g) { return std::make_unique<LexDfsTree>(g); }},
      {"dftno", [](const Graph& g) { return std::make_unique<Dftno>(g); }},
      {"stno", [](const Graph& g) { return std::make_unique<Stno>(g); }},
      {"stno-fixed-tree",
       [](const Graph& g) {
         return std::make_unique<Stno>(g, portOrderDfsTree(g));
       }},
      {"baseline",
       [](const Graph& g) {
         return std::make_unique<InitBasedOrientation>(g);
       }},
  };
}

struct TopologyCase {
  std::string name;
  Graph g;
};

std::vector<TopologyCase> topologyCases() {
  Rng topo(0xCA5E);
  std::vector<TopologyCase> out;
  out.push_back({"ring(9)", Graph::ring(9)});
  out.push_back({"grid(3x4)", Graph::grid(3, 4)});
  out.push_back({"complete(6)", Graph::complete(6)});
  out.push_back({"star(8)", Graph::star(8)});
  out.push_back({"random(10)", Graph::randomConnected(10, 0.3, topo)});
  return out;
}

struct RunLog {
  std::vector<Move> moves;
  RunStats phase1;
  RunStats phase2;
  std::vector<int> finalConfig;
};

enum class SimMode {
  kBitmask,       // incremental cache + EnabledView selection (default)
  kLegacyVector,  // incremental cache + materialized-vector selection
  kNaive,         // full rescan + materialized-vector selection
};

/// One deterministic scenario: scramble, run, inject 2 faults, run again.
RunLog runLogged(Protocol& protocol, Daemon& daemon, SimMode mode,
                 std::uint64_t seed, StepCount budget) {
  Rng rng(seed);
  protocol.randomize(rng);
  Simulator sim(protocol, daemon, rng);
  if (mode == SimMode::kNaive) sim.setNaiveEnabledScan(true);
  if (mode == SimMode::kLegacyVector) sim.setLegacyVectorSelect(true);
  RunLog log;
  sim.setMoveObserver([&log](const Move& m) { log.moves.push_back(m); });
  log.phase1 = sim.runToQuiescence(budget);
  FaultInjector(protocol).corruptK(2, rng);
  log.phase2 = sim.runToQuiescence(budget);
  log.finalConfig = protocol.rawConfiguration();
  return log;
}

class EnabledCacheEquivalence
    : public ::testing::TestWithParam<DaemonKind> {};

TEST_P(EnabledCacheEquivalence, BitmaskMatchesLegacyVectorAndNaiveRescan) {
  const DaemonKind daemonKind = GetParam();
  constexpr StepCount kBudget = 1'500;  // non-silent protocols never stop
  for (const TopologyCase& topo : topologyCases()) {
    for (const ProtocolCase& proto : protocolCases()) {
      SCOPED_TRACE(proto.name + " × " + daemonKindName(daemonKind) + " × " +
                   topo.name);
      const std::uint64_t seed = 0xD1147 + topo.g.nodeCount();

      auto bitmaskProto = proto.make(topo.g);
      auto bitmaskDaemon = makeDaemon(daemonKind);
      const RunLog bitmask = runLogged(*bitmaskProto, *bitmaskDaemon,
                                       SimMode::kBitmask, seed, kBudget);

      auto legacyProto = proto.make(topo.g);
      auto legacyDaemon = makeDaemon(daemonKind);
      const RunLog legacy = runLogged(*legacyProto, *legacyDaemon,
                                      SimMode::kLegacyVector, seed, kBudget);

      auto rescanned = proto.make(topo.g);
      auto naiveDaemon = makeDaemon(daemonKind);
      const RunLog naive =
          runLogged(*rescanned, *naiveDaemon, SimMode::kNaive, seed, kBudget);

      // Bitmask selection over the EnabledView ≡ legacy selection over
      // the materialized vector (same incremental cache)...
      EXPECT_EQ(bitmask.moves, legacy.moves);
      EXPECT_EQ(bitmask.finalConfig, legacy.finalConfig);
      // ...≡ the naive full-rescan pipeline, move for move.
      EXPECT_EQ(bitmask.moves, naive.moves);
      EXPECT_EQ(bitmask.phase1.moves, naive.phase1.moves);
      EXPECT_EQ(bitmask.phase1.steps, naive.phase1.steps);
      EXPECT_EQ(bitmask.phase1.rounds, naive.phase1.rounds);
      EXPECT_EQ(bitmask.phase1.terminal, naive.phase1.terminal);
      EXPECT_EQ(bitmask.phase2.moves, naive.phase2.moves);
      EXPECT_EQ(bitmask.phase2.rounds, naive.phase2.rounds);
      EXPECT_EQ(bitmask.finalConfig, naive.finalConfig);
      EXPECT_EQ(legacy.phase1.rounds, naive.phase1.rounds);
      EXPECT_EQ(legacy.phase2.rounds, naive.phase2.rounds);
    }
  }
}

// Round-robin from the clean DFTC boundary on a ring wider than one
// summary word (4096 nodes) keeps exactly one processor enabled: the
// daemon's cursor search runs to the end of the node index and wraps
// whenever the token moves to a lower-numbered processor, and every
// round opening walks the whole index.  One full token circulation must
// match the naive rescan move for move.
TEST(EnabledCacheEquivalence, RoundRobinTokenCirculationOnAWideRing) {
  constexpr NodeId n = 64 * 64 + 4;
  struct Log {
    std::vector<Move> moves;
    RunStats stats;
    std::vector<int> finalConfig;
  };
  const auto circulate = [](bool naive) {
    Dftc dftc(Graph::ring(n));
    dftc.resetClean();
    int starts = 0;
    TokenHooks hooks;
    hooks.onRoundStart = [&starts](NodeId) { ++starts; };
    dftc.setHooks(std::move(hooks));
    RoundRobinDaemon daemon;
    Rng rng(0x4C1);
    Simulator sim(dftc, daemon, rng);
    sim.setNaiveEnabledScan(naive);
    Log log;
    sim.setMoveObserver([&log](const Move& m) { log.moves.push_back(m); });
    // Until the root starts its second token: one whole circulation.
    log.stats = sim.runUntil([&starts] { return starts >= 2; }, 8 * n);
    log.finalConfig = dftc.rawConfiguration();
    dftc.setHooks(TokenHooks{});
    return log;
  };
  const Log indexed = circulate(false);
  const Log naive = circulate(true);
  ASSERT_TRUE(indexed.stats.converged);
  EXPECT_GE(indexed.stats.moves, 2 * (n - 1));  // the token visits every node
  EXPECT_EQ(indexed.moves, naive.moves);
  EXPECT_EQ(indexed.stats.moves, naive.stats.moves);
  EXPECT_EQ(indexed.stats.steps, naive.stats.steps);
  EXPECT_EQ(indexed.stats.rounds, naive.stats.rounds);
  EXPECT_EQ(indexed.finalConfig, naive.finalConfig);
}

INSTANTIATE_TEST_SUITE_P(Daemons, EnabledCacheEquivalence,
                         ::testing::Values(DaemonKind::kCentral,
                                           DaemonKind::kDistributed,
                                           DaemonKind::kRoundRobin,
                                           DaemonKind::kAdversarial),
                         [](const auto& info) {
                           std::string name = daemonKindName(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// The synchronous daemon drives executeSimultaneously (the neighborhood-
// limited snapshot/restore path); cover it against the naive rescan too.
TEST(EnabledCacheEquivalence, SynchronousSimultaneousStepsMatch) {
  for (const TopologyCase& topo : topologyCases()) {
    for (const ProtocolCase& proto : protocolCases()) {
      SCOPED_TRACE(proto.name + " × synchronous × " + topo.name);
      auto incremental = proto.make(topo.g);
      SynchronousDaemon d1;
      const RunLog inc =
          runLogged(*incremental, d1, SimMode::kBitmask, 0xAB, 1'500);
      auto legacyProto = proto.make(topo.g);
      SynchronousDaemon d2;
      const RunLog legacy =
          runLogged(*legacyProto, d2, SimMode::kLegacyVector, 0xAB, 1'500);
      auto rescanned = proto.make(topo.g);
      SynchronousDaemon d3;
      const RunLog naive =
          runLogged(*rescanned, d3, SimMode::kNaive, 0xAB, 1'500);
      EXPECT_EQ(inc.moves, legacy.moves);
      EXPECT_EQ(inc.moves, naive.moves);
      EXPECT_EQ(inc.finalConfig, naive.finalConfig);
      EXPECT_EQ(inc.phase2.rounds, naive.phase2.rounds);
    }
  }
}

// Direct unit coverage of the EnabledView: counts, membership, k-th
// selection (the central daemon's Fenwick descend), and the cyclic
// successor (the round-robin draw) against the materialized vector, on
// hundreds of randomized DFTNO configurations.
TEST(EnabledView, CountsMembershipKthAndCyclicSuccessorMatchVector) {
  Rng topoRng(0x71E4);
  const Graph g = Graph::randomConnected(40, 0.15, topoRng);
  Dftno proto(g);
  Rng rng(0xFEED);
  proto.randomize(rng);
  EnabledCache cache(proto);
  for (int step = 0; step < 300; ++step) {
    const EnabledView& view = cache.refreshView();
    std::vector<Move> vec;
    view.appendMoves(vec);
    ASSERT_EQ(static_cast<int>(vec.size()), view.moveCount());
    std::set<NodeId> nodes;
    for (const Move& m : vec) nodes.insert(m.node);
    EXPECT_EQ(static_cast<int>(nodes.size()), view.enabledNodeCount());
    for (NodeId p = 0; p < g.nodeCount(); ++p)
      EXPECT_EQ(view.anyEnabled(p), nodes.contains(p));
    for (std::size_t k = 0; k < vec.size(); ++k)
      EXPECT_EQ(view.kthMove(static_cast<int>(k)), vec[k]) << "k=" << k;
    // Cyclic successor from every vector position, plus the sentinel.
    EXPECT_EQ(view.nextPairAfter(Move{-1, 1 << 20}), vec.front());
    for (std::size_t i = 0; i < vec.size(); ++i)
      EXPECT_EQ(view.nextPairAfter(vec[i]), vec[(i + 1) % vec.size()]);
    if (vec.empty()) break;
    proto.execute(vec.front().node, vec.front().action);
  }
}

// The two-level node search beyond one summary word (4096 nodes): single
// enabled processors on every word and summary-word boundary, added and
// then removed one at a time, each state checked against a naive scan.
TEST(EnabledView, TwoLevelSearchMatchesNaiveScanAcrossSummaryWords) {
  constexpr NodeId kSpan = 64 * 64;  // nodes per summary word
  constexpr NodeId n = 3 * kSpan + 17;
  ZeroProtocol proto(Graph::path(n), 2);
  for (NodeId p = 0; p < n; ++p) proto.setValue(p, 0);
  EnabledCache cache(proto);
  const std::vector<NodeId> order{0,         63,        64,       kSpan - 1,
                                  kSpan,     kSpan + 1, 2 * kSpan - 1,
                                  2 * kSpan, n - 1};
  const auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    const EnabledView& view = cache.refreshView();
    const std::vector<Move> naive = proto.enabledMoves();
    std::vector<NodeId> nodes;
    for (const Move& m : naive) nodes.push_back(m.node);
    // Naive successor of every node: the first enabled node after it.
    std::vector<NodeId> next(static_cast<std::size_t>(n), kNoNode);
    for (NodeId p = n - 2, after = kNoNode; p >= 0; --p) {
      if (proto.value(p + 1) != 0) after = p + 1;
      next[static_cast<std::size_t>(p)] = after;
    }
    EXPECT_EQ(view.firstNode(), nodes.empty() ? kNoNode : nodes.front());
    for (NodeId p = 0; p < n; ++p)
      ASSERT_EQ(view.nextNode(p), next[static_cast<std::size_t>(p)])
          << "p=" << p;
    std::vector<NodeId> visited;
    view.forEachNode([&visited](NodeId p) { visited.push_back(p); });
    EXPECT_EQ(visited, nodes);
    std::vector<Move> moves;
    view.appendMoves(moves);
    EXPECT_EQ(moves, naive);
    for (std::size_t k = 0; k < moves.size(); ++k)
      EXPECT_EQ(view.kthMove(static_cast<int>(k)), moves[k]) << "k=" << k;
    if (naive.empty()) return;
    EXPECT_EQ(view.firstMove(), naive.front());
    EXPECT_EQ(view.nextPairAfter(Move{-1, 1 << 20}), naive.front());
    for (std::size_t i = 0; i < naive.size(); ++i)  // the last one wraps
      EXPECT_EQ(view.nextPairAfter(naive[i]),
                naive[(i + 1) % naive.size()]);
    // From every boundary node, enabled or not: the next move, cyclically.
    for (const NodeId p : order) {
      const NodeId after = next[static_cast<std::size_t>(p)];
      const Move expected = after == kNoNode ? naive.front() : Move{after, 0};
      EXPECT_EQ(view.nextPairAfter(Move{p, 0}), expected) << "after p=" << p;
    }
  };
  check("none enabled");
  for (const NodeId p : order) {
    proto.setValue(p, 1);
    check("enabled up to " + std::to_string(p));
  }
  for (const NodeId p : order) {
    proto.setValue(p, 0);
    check("disabled up to " + std::to_string(p));
  }
}

// Direct cache unit test: after a single move, only the dirty region is
// re-evaluated, yet the refreshed set equals a fresh full scan.
TEST(EnabledCache, RefreshTracksSingleMoves) {
  const Graph g = Graph::ring(16);
  Dftc dftc(g);
  dftc.resetClean();
  EnabledCache cache(dftc);
  for (int step = 0; step < 200; ++step) {
    const std::vector<Move>& cached = cache.refresh();
    EXPECT_EQ(cached, dftc.enabledMoves());
    ASSERT_FALSE(cached.empty());  // the token never stops
    dftc.execute(cached.front().node, cached.front().action);
  }
}

TEST(EnabledCache, PicksUpExternalWrites) {
  const Graph g = Graph::grid(3, 3);
  Stno stno(g);
  Rng rng(7);
  stno.randomize(rng);
  EnabledCache cache(stno);
  (void)cache.refresh();
  // External single-node writes (fault injection style) must dirty their
  // neighborhood and be reflected by the next refresh.
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    stno.randomizeNode(p, rng);
    EXPECT_EQ(cache.refresh(), stno.enabledMoves());
  }
  // Whole-configuration restore marks everything dirty.
  const std::vector<int> snapshot = stno.rawConfiguration();
  stno.randomize(rng);
  (void)cache.refresh();
  stno.setRawConfiguration(snapshot);
  EXPECT_EQ(cache.refresh(), stno.enabledMoves());
}

// STNO on star:64, over the BFS substrate and over the fixed star tree:
// every leaf's NodeLabel guard reads the hub's Start entry for it through
// parentPort and backPort, and a hub Distribute dirties all 63 leaves.
// After every central-daemon step the incremental view must list exactly
// Protocol::enabledMoves().  This check runs in every build type; the
// cache's batch-vs-scalar guard cross-check runs only in Debug.
TEST(EnabledCache, StnoOnAStarMatchesFullScanAfterEveryStep) {
  const Graph g = exp::TopologySpec::parse("star:64").build();
  std::vector<NodeId> hubParents(64, 0);
  hubParents[0] = kNoNode;
  for (const bool fixedTree : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(fixedTree ? "fixed" : "bfs") + " seed " +
                   std::to_string(seed));
      const auto made = fixedTree ? std::make_unique<Stno>(g, hubParents)
                                  : std::make_unique<Stno>(g);
      Stno& stno = *made;
      Rng rng(seed);
      stno.randomize(rng);
      EnabledCache cache(stno);
      const auto daemon = makeDaemon(DaemonKind::kCentral);
      std::vector<Move> listed;
      std::vector<Move> chosen;
      for (int step = 0; step < 200; ++step) {
        const EnabledView& view = cache.refreshView();
        listed.clear();
        view.appendMoves(listed);
        ASSERT_EQ(listed, stno.enabledMoves()) << "step " << step;
        if (view.empty()) break;
        daemon->selectInto(view, rng, chosen);
        for (const Move& m : chosen) stno.execute(m.node, m.action);
      }
    }
  }
}

}  // namespace
}  // namespace ssno
