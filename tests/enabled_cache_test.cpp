// Equivalence suite for the incremental enabled-move cache: every
// protocol × {central, distributed, fair, adversarial, synchronous}
// daemon × several topologies, run twice from the same seed — once by
// the production Simulator (incremental EnabledCache, bitmask daemon
// selection) and once by the reference simulator of
// tests/oracle/sim_oracle.hpp (a full guard rescan and a reference
// daemon over the move vector every step) — must produce identical
// move sequences, step/round counts, and final raw configurations.
// Because daemons draw from the RNG based on the enabled set they are
// handed, any discrepancy in the incremental set (content OR order)
// diverges the runs immediately; fault injection mid-run additionally
// exercises the dirty paths of randomizeNode and decodeNode.  After
// every production step the post-step view is also checked against a
// full guard scan (tests/oracle/view_oracle.hpp): the structures a
// daemon does not read — the Fenwick tree under round-robin, the node
// walk under the central daemon — must be right too.
#include "core/enabled_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/daemon.hpp"
#include "core/fault.hpp"
#include "core/graph.hpp"
#include "core/scheduler.hpp"
#include "dftc/dftc.hpp"
#include "exp/topology.hpp"
#include "oracle/sim_oracle.hpp"
#include "oracle/view_oracle.hpp"
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
  // A single move dirties fewer than 64 / 16 nodes here, so refreshes
  // take the sparse path that patches the Fenwick tree node by node.
  out.push_back({"ring(64)", Graph::ring(64)});
  return out;
}

struct RunLog {
  std::vector<Move> moves;
  RunStats phase1;
  RunStats phase2;
  std::vector<int> finalConfig;
};

/// One deterministic scenario: scramble, run, inject 2 faults, run again
/// — on the production Simulator, whose view is checked against a full
/// scan after every step, or on the reference simulator.
template <class Sim, class SimDaemon>
RunLog runLogged(Protocol& protocol, SimDaemon& daemon, std::uint64_t seed,
                 StepCount budget) {
  Rng rng(seed);
  protocol.randomize(rng);
  Sim sim(protocol, daemon, rng);
  RunLog log;
  sim.setMoveObserver([&log](const Move& m) { log.moves.push_back(m); });
  if constexpr (std::is_same_v<Sim, Simulator>)
    sim.setStatusObserver([&protocol](std::span<const NodeId>, bool,
                                      const EnabledView& view) {
      if (!::testing::Test::HasFatalFailure())  // the first bad step only
        oracle::expectViewMatchesScan(view, protocol);
    });
  log.phase1 = sim.runToQuiescence(budget);
  FaultInjector(protocol).corruptK(2, rng);
  log.phase2 = sim.runToQuiescence(budget);
  log.finalConfig = protocol.rawConfiguration();
  return log;
}

RunLog runProduction(const ProtocolCase& proto, const Graph& g,
                     DaemonKind kind, std::uint64_t seed, StepCount budget) {
  auto protocol = proto.make(g);
  auto daemon = makeDaemon(kind);
  return runLogged<Simulator>(*protocol, *daemon, seed, budget);
}

RunLog runReference(const ProtocolCase& proto, const Graph& g,
                    DaemonKind kind, std::uint64_t seed, StepCount budget) {
  auto protocol = proto.make(g);
  auto daemon = oracle::makeReferenceDaemon(kind);
  return runLogged<oracle::ReferenceSimulator>(*protocol, *daemon, seed,
                                               budget);
}

void expectSameRun(const RunLog& production, const RunLog& reference) {
  EXPECT_EQ(production.moves, reference.moves);
  EXPECT_EQ(production.phase1.moves, reference.phase1.moves);
  EXPECT_EQ(production.phase1.steps, reference.phase1.steps);
  EXPECT_EQ(production.phase1.rounds, reference.phase1.rounds);
  EXPECT_EQ(production.phase1.terminal, reference.phase1.terminal);
  EXPECT_EQ(production.phase2.moves, reference.phase2.moves);
  EXPECT_EQ(production.phase2.steps, reference.phase2.steps);
  EXPECT_EQ(production.phase2.rounds, reference.phase2.rounds);
  EXPECT_EQ(production.phase2.terminal, reference.phase2.terminal);
  EXPECT_EQ(production.finalConfig, reference.finalConfig);
}

class EnabledCacheEquivalence
    : public ::testing::TestWithParam<DaemonKind> {};

TEST_P(EnabledCacheEquivalence, SimulatorMatchesTheReferenceSimulator) {
  const DaemonKind daemonKind = GetParam();
  constexpr StepCount kBudget = 1'500;  // non-silent protocols never stop
  for (const TopologyCase& topo : topologyCases()) {
    for (const ProtocolCase& proto : protocolCases()) {
      SCOPED_TRACE(proto.name + " × " + daemonKindName(daemonKind) + " × " +
                   topo.name);
      const std::uint64_t seed = 0xD1147 + topo.g.nodeCount();
      expectSameRun(runProduction(proto, topo.g, daemonKind, seed, kBudget),
                    runReference(proto, topo.g, daemonKind, seed, kBudget));
    }
  }
}

// Round-robin from the clean DFTC boundary on a ring wider than one
// summary word (4096 nodes) keeps exactly one processor enabled: the
// daemon's cursor search runs to the end of the node index and wraps
// whenever the token moves to a lower-numbered processor, and every
// round opening walks the whole index.  One full token circulation must
// match the reference simulator move for move, and the final production
// view a full guard scan: every refresh here is sparse, so the cache
// patches its Fenwick tree node by node, and round-robin selection never
// reads that tree.
TEST(EnabledCacheEquivalence, RoundRobinTokenCirculationOnAWideRing) {
  constexpr NodeId n = 64 * 64 + 4;
  struct Log {
    std::vector<Move> moves;
    RunStats stats;
    std::vector<int> finalConfig;
  };
  const auto circulate = [](auto&& makeSim) {
    Dftc dftc(Graph::ring(n));
    dftc.resetClean();
    int starts = 0;
    Rng rng(0x4C1);
    Log log;
    auto sim = makeSim(dftc, rng);
    sim->setMoveObserver([&log, &starts](const Move& m) {
      log.moves.push_back(m);
      if (m.action == Dftc::kStart) ++starts;
    });
    const EnabledView* view = nullptr;  // the production post-step view
    if constexpr (std::is_same_v<std::decay_t<decltype(*sim)>, Simulator>)
      sim->setStatusObserver(
          [&view](std::span<const NodeId>, bool, const EnabledView& v) {
            view = &v;
          });
    // Until the root starts its second token: one whole circulation.
    log.stats = sim->runUntil([&starts] { return starts >= 2; }, 8 * n);
    log.finalConfig = dftc.rawConfiguration();
    if (view != nullptr) oracle::expectViewMatchesScan(*view, dftc);
    return log;
  };
  RoundRobinDaemon daemon;
  oracle::ReferenceRoundRobin referenceDaemon;
  const Log indexed = circulate([&daemon](Protocol& p, Rng& rng) {
    return std::make_unique<Simulator>(p, daemon, rng);
  });
  const Log reference = circulate([&referenceDaemon](Protocol& p, Rng& rng) {
    return std::make_unique<oracle::ReferenceSimulator>(p, referenceDaemon,
                                                        rng);
  });
  ASSERT_TRUE(indexed.stats.converged);
  EXPECT_GE(indexed.stats.moves, 2 * (n - 1));  // the token visits every node
  EXPECT_EQ(indexed.moves, reference.moves);
  EXPECT_EQ(indexed.stats.moves, reference.stats.moves);
  EXPECT_EQ(indexed.stats.steps, reference.stats.steps);
  EXPECT_EQ(indexed.stats.rounds, reference.stats.rounds);
  EXPECT_EQ(indexed.finalConfig, reference.finalConfig);
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

// The synchronous daemon drives the simultaneous-step engine; cover it
// against the reference simulator's brute-force step too.
TEST(EnabledCacheEquivalence, SynchronousSimultaneousStepsMatch) {
  for (const TopologyCase& topo : topologyCases()) {
    for (const ProtocolCase& proto : protocolCases()) {
      SCOPED_TRACE(proto.name + " × synchronous × " + topo.name);
      expectSameRun(
          runProduction(proto, topo.g, DaemonKind::kSynchronous, 0xAB, 1'500),
          runReference(proto, topo.g, DaemonKind::kSynchronous, 0xAB, 1'500));
    }
  }
}

// Direct unit coverage of the EnabledView on hundreds of randomized DFTNO
// configurations: counts, membership and k-th selection (the central
// daemon's Fenwick descent) against a full guard scan, and the cyclic
// successor (the round-robin draw) against the materialized vector.
TEST(EnabledView, CountsMembershipKthAndCyclicSuccessorMatchVector) {
  Rng topoRng(0x71E4);
  const Graph g = Graph::randomConnected(40, 0.15, topoRng);
  Dftno proto(g);
  Rng rng(0xFEED);
  proto.randomize(rng);
  EnabledCache cache(proto);
  for (int step = 0; step < 300; ++step) {
    const EnabledView& view = cache.refreshView();
    ASSERT_NO_FATAL_FAILURE(oracle::expectViewMatchesScan(view, proto));
    std::vector<Move> vec;
    view.appendMoves(vec);
    if (vec.empty()) break;
    // Cyclic successor from every vector position, plus the sentinel.
    EXPECT_EQ(view.nextPairAfter(Move{-1, 1 << 20}), vec.front());
    for (std::size_t i = 0; i < vec.size(); ++i)
      EXPECT_EQ(view.nextPairAfter(vec[i]), vec[(i + 1) % vec.size()]);
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
    // Naive successor of every node: the first enabled node after it.
    std::vector<NodeId> next(static_cast<std::size_t>(n), kNoNode);
    for (NodeId p = n - 2, after = kNoNode; p >= 0; --p) {
      if (proto.value(p + 1) != 0) after = p + 1;
      next[static_cast<std::size_t>(p)] = after;
    }
    EXPECT_EQ(view.firstNode(), naive.empty() ? kNoNode : naive.front().node);
    for (NodeId p = 0; p < n; ++p)
      ASSERT_EQ(view.nextNode(p), next[static_cast<std::size_t>(p)])
          << "p=" << p;
    ASSERT_NO_FATAL_FAILURE(oracle::expectViewMatchesScan(view, proto));
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
    const EnabledView& view = cache.refreshView();
    ASSERT_NO_FATAL_FAILURE(oracle::expectViewMatchesScan(view, dftc));
    ASSERT_FALSE(view.empty());  // the token never stops
    const Move m = view.firstMove();
    dftc.execute(m.node, m.action);
  }
}

TEST(EnabledCache, PicksUpExternalWrites) {
  const Graph g = Graph::grid(3, 3);
  Stno stno(g);
  Rng rng(7);
  stno.randomize(rng);
  EnabledCache cache(stno);
  (void)cache.refreshView();
  // External single-node writes (fault injection style) must dirty their
  // neighborhood and be reflected by the next refresh.
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    stno.randomizeNode(p, rng);
    ASSERT_NO_FATAL_FAILURE(
        oracle::expectViewMatchesScan(cache.refreshView(), stno));
  }
  // Whole-configuration restore marks everything dirty.
  const std::vector<int> snapshot = stno.rawConfiguration();
  stno.randomize(rng);
  (void)cache.refreshView();
  stno.setRawConfiguration(snapshot);
  oracle::expectViewMatchesScan(cache.refreshView(), stno);
}

// STNO on star:64, over the BFS substrate and over the fixed star tree:
// every leaf's NodeLabel guard reads the hub's Start entry for it through
// parentPort and backPort, and a hub Distribute dirties all 63 leaves.
// After every central-daemon step the incremental view must match a
// full guard scan (tests/oracle/view_oracle.hpp).  Stno's batch kernel
// against its scalar guards is guard_batch_test's.
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
      std::vector<Move> chosen;
      for (int step = 0; step < 200; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const EnabledView& view = cache.refreshView();
        ASSERT_NO_FATAL_FAILURE(oracle::expectViewMatchesScan(view, stno));
        if (view.empty()) break;
        daemon->selectInto(view, rng, chosen);
        for (const Move& m : chosen) stno.execute(m.node, m.action);
      }
    }
  }
}

/// Every processor's enabled-action mask, by the scalar guards.
std::vector<std::uint64_t> scanMasks(const Protocol& protocol) {
  std::vector<std::uint64_t> masks(
      static_cast<std::size_t>(protocol.graph().nodeCount()), 0);
  for (const Move& m : protocol.enabledMoves())
    masks[static_cast<std::size_t>(m.node)] |= std::uint64_t{1} << m.action;
  return masks;
}

// The premise of the narrowed dirty regions (Protocol::dirtyAfterWrite):
// Dftno's and Stno's EdgeLabel dirty {p}, and Stno's Weight {p, A_p}.
// From randomized raw configurations, with η and W also outside their
// domains, every enabled EdgeLabel and Weight move is executed alone:
// its statement must change p's π row (its W) and nothing else in the
// raw configuration, it must disable itself at p, and every processor
// outside the region it dirtied must keep the guard mask a full scan
// gave it before the move.
TEST(EnabledCache, NarrowedRegionsCoverEveryGuardAMoveChanges) {
  struct Case {
    std::string name;
    std::function<std::unique_ptr<Protocol>(const Graph&)> make;
    int edgeLabel;
    int weight;  // -1: no Weight action
  };
  const std::vector<Case> cases = {
      {"dftno",
       [](const Graph& g) { return std::make_unique<Dftno>(g); },
       Dftno::kEdgeLabel, -1},
      {"dftno-paper-guard",
       [](const Graph& g) {
         return std::make_unique<Dftno>(g, EdgeLabelGuard::kPaperFaithful);
       },
       Dftno::kEdgeLabel, -1},
      {"stno", [](const Graph& g) { return std::make_unique<Stno>(g); },
       Stno::kEdgeLabel, Stno::kWeight},
      {"stno-fixed-tree",
       [](const Graph& g) {
         return std::make_unique<Stno>(g, portOrderDfsTree(g));
       },
       Stno::kEdgeLabel, Stno::kWeight},
  };
  Rng topo(0xCA5E);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"ring(9)", Graph::ring(9)},
      {"grid(3x4)", Graph::grid(3, 4)},
      {"star(8)", Graph::star(8)},
      {"complete(6)", Graph::complete(6)},
      {"random(10)", Graph::randomConnected(10, 0.3, topo)},
  };
  int executed[2] = {0, 0};  // EdgeLabel, Weight moves
  for (const Case& c : cases) {
    for (const auto& [graphName, g] : graphs) {
      const int n = g.nodeCount();
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(c.name + " on " + graphName + " seed " +
                     std::to_string(seed));
        const std::unique_ptr<Protocol> protocol = c.make(g);
        Rng rng(seed);
        protocol->randomize(rng);
        // The overlay arena is the last.  Dftno's is {η, Max, π row} and
        // Stno's {W, η, Start row, π row}; push η and W out of range.
        const bool stno = c.weight >= 0;
        for (NodeId p = 0; p < n; ++p) {
          std::vector<int> raw = protocol->rawNode(p);
          const std::size_t rows =
              static_cast<std::size_t>(g.degree(p)) * (stno ? 2 : 1);
          const std::size_t eta = raw.size() - rows - (stno ? 1 : 2);
          std::vector<std::size_t> slots = {eta};
          if (stno) slots.push_back(eta - 1);  // W
          for (const std::size_t slot : slots)
            if (rng.chance(0.3)) raw[slot] = rng.below(4 * n) - 2 * n;
          protocol->setRawNode(p, raw);
        }
        const std::vector<int> before = protocol->rawConfiguration();
        const std::vector<std::uint64_t> masksBefore = scanMasks(*protocol);
        std::vector<std::size_t> offset;  // p's first raw value
        std::size_t at = 0;
        for (NodeId p = 0; p < n; ++p) {
          offset.push_back(at);
          at += protocol->rawNodeLength(p);
        }
        for (const Move& m : protocol->enabledMoves()) {
          if (m.action != c.edgeLabel && m.action != c.weight) continue;
          const NodeId p = m.node;
          const auto deg = static_cast<std::size_t>(g.degree(p));
          const std::size_t end =
              offset[static_cast<std::size_t>(p)] + protocol->rawNodeLength(p);
          // The written slice: π is every layout's last row, and Stno's W
          // comes before its η and two rows.
          const std::size_t from =
              m.action == c.edgeLabel ? end - deg : end - 2 * deg - 2;
          const std::size_t to = m.action == c.edgeLabel ? end : from + 1;
          SCOPED_TRACE(protocol->actionName(m.action) + " at " +
                       std::to_string(p));
          protocol->setRawConfiguration(before);
          protocol->clearDirty();
          protocol->execute(p, m.action);
          ++executed[m.action == c.edgeLabel ? 0 : 1];
          std::vector<NodeId> region = protocol->dirtyNodes();
          std::sort(region.begin(), region.end());
          const std::vector<int> after = protocol->rawConfiguration();
          for (std::size_t i = 0; i < after.size(); ++i) {
            if (i < from || i >= to) {
              ASSERT_EQ(after[i], before[i]) << i;
            }
          }
          ASSERT_FALSE(protocol->enabled(p, m.action));
          // The region is the narrowed one: {p}, plus for Weight at most
          // one neighbour (its tree parent).
          ASSERT_TRUE(std::binary_search(region.begin(), region.end(), p));
          ASSERT_LE(region.size(), m.action == c.edgeLabel ? 1U : 2U);
          const std::vector<std::uint64_t> masksAfter = scanMasks(*protocol);
          for (NodeId q = 0; q < n; ++q) {
            if (!std::binary_search(region.begin(), region.end(), q)) {
              ASSERT_EQ(masksAfter[static_cast<std::size_t>(q)],
                        masksBefore[static_cast<std::size_t>(q)])
                  << "q=" << q;
            }
          }
        }
      }
    }
  }
  // Both statements ran often enough to cover the cases above.
  EXPECT_GT(executed[0], 100);
  EXPECT_GT(executed[1], 100);
}

}  // namespace
}  // namespace ssno
