// Simultaneous-step equivalence suite (the columnar engine's contract):
// the production Simulator and the reference simulator of
// tests/oracle/sim_oracle.hpp (full guard rescans, reference daemons,
// brute-force shared-memory steps) must produce identical runs — final
// raw configurations, move/step/round accounting, RNG engine state, and
// the enabled set — across protocols × daemons × topologies.  Also
// unit-tests the engine against the brute-force reference step
// (tests/oracle/step_oracle.hpp) and the batched StateArena
// snapshot/restore ops.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/enabled_cache.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "core/state_arena.hpp"
#include "core/sync_engine.hpp"
#include "dftc/dftc.hpp"
#include "obs/metrics.hpp"
#include "oracle/sim_oracle.hpp"
#include "oracle/step_oracle.hpp"
#include "oracle/view_oracle.hpp"
#include "orientation/baseline.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "sptree/bfs_tree.hpp"
#include "sptree/lex_dfs_tree.hpp"

namespace ssno {
namespace {

enum class Proto { kDftc, kDftno, kStno, kBfsTree, kLexDfsTree, kBaseline };

std::unique_ptr<Protocol> makeProto(Proto kind, const Graph& g) {
  switch (kind) {
    case Proto::kDftc: return std::make_unique<Dftc>(g);
    case Proto::kDftno: return std::make_unique<Dftno>(g);
    case Proto::kStno: return std::make_unique<Stno>(g);
    case Proto::kBfsTree: return std::make_unique<BfsTree>(g);
    case Proto::kLexDfsTree: return std::make_unique<LexDfsTree>(g);
    case Proto::kBaseline: return std::make_unique<InitBasedOrientation>(g);
  }
  return nullptr;
}

std::vector<Graph> topologies() {
  Rng rng(99);
  std::vector<Graph> out;
  out.push_back(Graph::ring(12));
  out.push_back(Graph::grid(3, 4));
  out.push_back(Graph::star(9));
  out.push_back(Graph::complete(6));
  out.push_back(Graph::randomConnected(14, 0.3, rng));
  return out;
}

struct RunRecord {
  std::vector<int> config;
  StepCount moves = 0;
  StepCount steps = 0;
  StepCount rounds = 0;
  std::vector<Move> enabled;  // EnabledCache contents at the end
  Rng rng{0};
};

/// Runs `maxMoves` moves of `proto` from the scrambled start, on the
/// production Simulator or on the reference simulator.
RunRecord runPipeline(Protocol& proto, DaemonKind daemonKind,
                      std::uint64_t seed, StepCount maxMoves,
                      bool reference) {
  Rng rng(seed);
  proto.randomize(rng);
  RunStats stats;
  if (reference) {
    const auto daemon = oracle::makeReferenceDaemon(daemonKind);
    oracle::ReferenceSimulator sim(proto, *daemon, rng);
    stats = sim.runToQuiescence(maxMoves);
  } else {
    const std::unique_ptr<Daemon> daemon = makeDaemon(daemonKind);
    Simulator sim(proto, *daemon, rng);
    stats = sim.runToQuiescence(maxMoves);
  }
  RunRecord rec;
  rec.config = proto.rawConfiguration();
  rec.moves = stats.moves;
  rec.steps = stats.steps;
  rec.rounds = stats.rounds;
  rec.enabled = proto.enabledMoves();
  rec.rng = rng;
  return rec;
}

void expectSameRecord(RunRecord columnar, RunRecord reference,
                      const std::string& ctx) {
  EXPECT_EQ(columnar.config, reference.config) << ctx;
  EXPECT_EQ(columnar.moves, reference.moves) << ctx;
  EXPECT_EQ(columnar.steps, reference.steps) << ctx;
  EXPECT_EQ(columnar.rounds, reference.rounds) << ctx;
  EXPECT_EQ(columnar.enabled, reference.enabled) << ctx;
  EXPECT_TRUE(columnar.rng.engine() == reference.rng.engine()) << ctx;
}

TEST(SyncEquivalence, ColumnarMatchesTheReferenceSimulator) {
  const std::vector<Graph> graphs = topologies();
  for (Proto kind : {Proto::kDftc, Proto::kDftno, Proto::kStno,
                     Proto::kBfsTree, Proto::kLexDfsTree}) {
    for (DaemonKind daemon :
         {DaemonKind::kSynchronous, DaemonKind::kDistributed}) {
      for (std::size_t t = 0; t < graphs.size(); ++t) {
        for (std::uint64_t seed : {7ull, 1234ull}) {
          const std::string ctx = "proto=" + std::to_string(int(kind)) +
                                  " daemon=" + daemonKindName(daemon) +
                                  " topo=" + std::to_string(t) +
                                  " seed=" + std::to_string(seed);
          const std::unique_ptr<Protocol> columnar =
              makeProto(kind, graphs[t]);
          const std::unique_ptr<Protocol> reference =
              makeProto(kind, graphs[t]);
          expectSameRecord(
              runPipeline(*columnar, daemon, seed, 400, false),
              runPipeline(*reference, daemon, seed, 400, true), ctx);
        }
      }
    }
  }
}

/// The non-neighborhood-local fallback: InitBasedOrientation's Number
/// guard reads a non-neighbor, so simultaneous steps take the
/// full-configuration path (columnar, since baseline opts in).
TEST(SyncEquivalence, FullSnapshotFallbackMatchesTheReferenceSimulator) {
  const Graph g = Graph::grid(3, 4);
  for (std::uint64_t seed : {3ull, 77ull}) {
    InitBasedOrientation columnar(g);
    InitBasedOrientation reference(g);
    expectSameRecord(
        runPipeline(columnar, DaemonKind::kSynchronous, seed, 300, false),
        runPipeline(reference, DaemonKind::kSynchronous, seed, 300, true),
        "seed=" + std::to_string(seed));
  }
}

// Single steps against the brute-force step on every engine path: the
// batched two-phase kernels (Dftc, Dftno, Stno, BfsTree), the
// neighborhood rollback (LexDfsTree) and the write-logging
// full-configuration path (InitBasedOrientation).  Odd rounds select few movers, so the
// step stays below Protocol::endSimultaneousStep's dense threshold and
// the cache patches only the step's dirty region.  One long-lived cache
// is refreshed and checked against a full scan after every step and
// every undo: a step or an undo that skips a dirty notice leaves it
// stale.
TEST(SimultaneousEngine, MatchesBruteForceAndUndoRestores) {
  const Graph g = Graph::grid(3, 4);
  for (Proto kind : {Proto::kDftc, Proto::kDftno, Proto::kStno,
                     Proto::kBfsTree, Proto::kLexDfsTree,
                     Proto::kBaseline}) {
    SCOPED_TRACE("proto=" + std::to_string(int(kind)));
    const std::unique_ptr<Protocol> proto = makeProto(kind, g);
    const std::unique_ptr<Protocol> ref = makeProto(kind, g);
    SimultaneousEngine engine(*proto);
    EnabledCache cache(*proto);
    Rng rng(42);
    for (int round = 0; round < 30; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      {
        Rng r2(1000 + round);
        proto->randomize(r2);
      }
      {
        Rng r2(1000 + round);
        ref->randomize(r2);
      }
      ASSERT_EQ(proto->rawConfiguration(), ref->rawConfiguration());
      ASSERT_NO_FATAL_FAILURE(
          oracle::expectViewMatchesScan(cache.refreshView(), *proto));
      // A random simultaneous selection: one enabled action for a
      // random subset of enabled processors (node-ascending).
      const double skip = round % 2 == 0 ? 0.3 : 0.8;
      std::vector<Move> sel;
      for (NodeId p = 0; p < g.nodeCount(); ++p) {
        std::vector<int> actions;
        for (int a = 0; a < proto->actionCount(); ++a)
          if (proto->enabled(p, a)) actions.push_back(a);
        if (actions.empty() || rng.chance(skip)) continue;
        sel.push_back(
            {p, actions[static_cast<std::size_t>(
                    rng.below(static_cast<int>(actions.size())))]});
      }
      if (sel.empty()) continue;
      const std::vector<int> before = proto->rawConfiguration();
      engine.execute(sel);
      EXPECT_EQ(proto->rawConfiguration(), oracle::bruteForceStep(*ref, sel));
      ASSERT_NO_FATAL_FAILURE(
          oracle::expectViewMatchesScan(cache.refreshView(), *proto));
      engine.undo();
      EXPECT_EQ(proto->rawConfiguration(), before);
      ASSERT_NO_FATAL_FAILURE(
          oracle::expectViewMatchesScan(cache.refreshView(), *proto));
    }
  }
}

// Which path each production protocol's synchronous steps take: the
// two-phase batch (Dftc, Dftno, BfsTree, Stno) rolls nothing back, so
// sync_rollback_nodes_total stays flat, while LexDfsTree keeps the
// neighbourhood-rollback path under test and the counter rises.  A batch
// executor that returned false would fall back to the rollback path and
// fail here, although every run would stay correct.
TEST(SimultaneousEngine, EachProtocolTakesItsPath) {
  const Graph g = Graph::grid(4, 4);
  const obs::Registry& reg = obs::Registry::global();
  for (Proto kind : {Proto::kDftc, Proto::kDftno, Proto::kBfsTree,
                     Proto::kStno, Proto::kLexDfsTree}) {
    SCOPED_TRACE("proto=" + std::to_string(int(kind)));
    const std::unique_ptr<Protocol> proto = makeProto(kind, g);
    Rng rng(17);
    proto->randomize(rng);
    SynchronousDaemon daemon;
    Simulator sim(*proto, daemon, rng);
    const std::uint64_t steps0 = reg.counterValue("sync_steps_total");
    const std::uint64_t rollbacks0 =
        reg.counterValue("sync_rollback_nodes_total");
    for (int i = 0; i < 20 && !sim.stepOnce().empty(); ++i) {
    }
    EXPECT_GT(reg.counterValue("sync_steps_total"), steps0);
    const std::uint64_t rollbacks =
        reg.counterValue("sync_rollback_nodes_total") - rollbacks0;
    if (kind == Proto::kLexDfsTree)
      EXPECT_GT(rollbacks, 0u);
    else
      EXPECT_EQ(rollbacks, 0u);
  }
}

TEST(StateArena, BatchSnapshotRestoreRoundTrip) {
  const Graph g = Graph::grid(3, 3);
  StateArena arena(g, DigitOrder::kLeastFirst);
  NodeColumn a = arena.nodeColumn({.base = 100});
  PortColumn b = arena.portColumn({.base = 100});
  VarColumn c = arena.varColumn();
  Rng rng(5);
  auto scramble = [&] {
    for (NodeId p = 0; p < g.nodeCount(); ++p) {
      a[p] = rng.below(100);
      for (Port l = 0; l < g.degree(p); ++l) b.at(p, l) = rng.below(100);
      std::vector<int> row(static_cast<std::size_t>(rng.below(6)));
      for (int& x : row) x = rng.below(50);
      c.setRow(p, row);
    }
  };
  scramble();
  const std::vector<NodeId> nodes = {1, 3, 4, 7};
  auto snapshotOf = [&](NodeId p) {
    std::vector<int> raw;
    arena.appendRawNode(p, raw);
    return raw;
  };
  std::vector<std::vector<int>> want;
  for (NodeId p : nodes) want.push_back(snapshotOf(p));

  StateArena::Scratch scratch;
  arena.snapshotNodes(nodes, scratch);
  scramble();  // clobber everything
  arena.restoreNodes(nodes, scratch);
  for (std::size_t j = 0; j < nodes.size(); ++j)
    EXPECT_EQ(snapshotOf(nodes[j]), want[j]) << "node " << nodes[j];

  // Single-node restore: clobber one listed node, restore just it.
  scramble();
  arena.restoreNode(2, nodes[2], scratch);
  EXPECT_EQ(snapshotOf(nodes[2]), want[2]);
}

TEST(VarColumn, GrowShrinkCompactAndAliasing) {
  const Graph g = Graph::ring(4);
  StateArena arena(g, DigitOrder::kLeastFirst);
  VarColumn col = arena.varColumn();
  // Grow rows repeatedly to force relocations and compactions.
  Rng rng(11);
  std::vector<std::vector<int>> shadow(4);
  for (int round = 0; round < 500; ++round) {
    const NodeId p = rng.below(4);
    std::vector<int> row(static_cast<std::size_t>(rng.below(40)));
    for (int& x : row) x = rng.below(1000);
    col.setRow(p, row);
    shadow[static_cast<std::size_t>(p)] = row;
    for (NodeId q = 0; q < 4; ++q) {
      const auto have = col.row(q);
      const auto& want = shadow[static_cast<std::size_t>(q)];
      ASSERT_EQ(std::vector<int>(have.begin(), have.end()), want);
    }
  }
  // Aliasing: set a row from another row's span (plus growth).
  col.setRow(0, std::vector<int>{1, 2, 3});
  std::vector<int> fromRow(col.row(0).begin(), col.row(0).end());
  col.setRow(1, col.row(0));  // may relocate while reading the pool
  EXPECT_EQ(std::vector<int>(col.row(1).begin(), col.row(1).end()), fromRow);
}

}  // namespace
}  // namespace ssno
