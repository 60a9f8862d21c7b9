// Batch guard-evaluation suite (the Protocol::evaluateGuards contract):
// every columnar kernel override must be bit-identical to the scalar
// per-node virtual enabled() loop — on raw masks over randomized
// configurations (including unaligned batch sizes: 1, word-boundary,
// full n), and on whole runs: the production Simulator, which refreshes
// guards through the kernels, must reproduce the move, step and round
// counts, final configurations and enabled sets of the reference
// simulator (tests/oracle/sim_oracle.hpp), which scans the scalar
// enabled() loop every step, across the overriding protocols × daemons
// × topologies.  Also pins the sync
// engine's write-logging restore on the full-configuration path
// (non-neighborhood-local guards): execute + undo must round-trip the
// configuration exactly, and a re-execute must land on the same post
// state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/daemon.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "core/sync_engine.hpp"
#include "dftc/dftc.hpp"
#include "oracle/sim_oracle.hpp"
#include "orientation/baseline.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "sptree/bfs_tree.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno {
namespace {

enum class Proto { kDftc, kDftno, kStno, kBfsTree };

std::unique_ptr<Protocol> makeProto(Proto kind, const Graph& g) {
  switch (kind) {
    case Proto::kDftc: return std::make_unique<Dftc>(g);
    case Proto::kDftno: return std::make_unique<Dftno>(g);
    case Proto::kStno: return std::make_unique<Stno>(g);
    case Proto::kBfsTree: return std::make_unique<BfsTree>(g);
  }
  return nullptr;
}

constexpr Proto kProtos[] = {Proto::kDftc, Proto::kDftno, Proto::kStno,
                             Proto::kBfsTree};

std::vector<Graph> topologies() {
  Rng rng(77);
  std::vector<Graph> out;
  out.push_back(Graph::ring(12));
  out.push_back(Graph::grid(3, 4));
  out.push_back(Graph::complete(6));
  out.push_back(Graph::randomConnected(14, 0.3, rng));
  return out;
}

/// The scalar reference: the Protocol-default per-node enabled() loop.
std::vector<std::uint64_t> scalarMasks(const Protocol& proto,
                                       const std::vector<NodeId>& nodes) {
  std::vector<std::uint64_t> masks(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::uint64_t mask = 0;
    for (int a = 0; a < proto.actionCount(); ++a)
      if (proto.enabled(nodes[i], a)) mask |= std::uint64_t{1} << a;
    masks[i] = mask;
  }
  return masks;
}

void expectKernelMatchesScalar(const Protocol& proto,
                               const std::vector<NodeId>& nodes) {
  std::vector<std::uint64_t> masks(nodes.size());
  proto.evaluateGuards(nodes, masks.data());
  const std::vector<std::uint64_t> ref = scalarMasks(proto, nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    EXPECT_EQ(masks[i], ref[i]) << "node " << nodes[i];
}

TEST(GuardBatch, KernelsMatchScalarOnRandomizedStates) {
  for (const Graph& g : topologies()) {
    for (const Proto kind : kProtos) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const std::unique_ptr<Protocol> proto = makeProto(kind, g);
        Rng rng(seed);
        proto->randomize(rng);
        std::vector<NodeId> all(static_cast<std::size_t>(g.nodeCount()));
        for (NodeId p = 0; p < g.nodeCount(); ++p)
          all[static_cast<std::size_t>(p)] = p;
        expectKernelMatchesScalar(*proto, all);
      }
    }
  }
}

TEST(GuardBatch, UnalignedBatchSizes) {
  // n = 130 straddles two 64-bit words; batches of size 1, 63, 64, 65,
  // and full-n hit the word-boundary paths.  Batches are random sorted
  // duplicate-free subsets, per the evaluateGuards contract.
  const Graph g = Graph::ring(130);
  for (const Proto kind : kProtos) {
    const std::unique_ptr<Protocol> proto = makeProto(kind, g);
    Rng rng(42);
    proto->randomize(rng);
    std::vector<NodeId> ids(static_cast<std::size_t>(g.nodeCount()));
    for (NodeId p = 0; p < g.nodeCount(); ++p)
      ids[static_cast<std::size_t>(p)] = p;
    for (const std::size_t size :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          ids.size()}) {
      // Partial Fisher-Yates, then sort the chosen prefix.
      for (std::size_t i = 0; i < size; ++i)
        std::swap(ids[i],
                  ids[i + static_cast<std::size_t>(rng.below(
                              static_cast<int>(ids.size() - i)))]);
      std::vector<NodeId> nodes(ids.begin(),
                                ids.begin() + static_cast<std::ptrdiff_t>(size));
      std::sort(nodes.begin(), nodes.end());
      expectKernelMatchesScalar(*proto, nodes);
    }
  }
}

// Faults can put any raw value in STNO's overlay columns: η, Start and
// π entries outside [0, N), W outside [1, N].  The kernel's division-
// free Start walk takes the exact % form for those, so it must still
// match the scalar guards mask by mask, over the BFS tree and over a
// fixed one.
TEST(GuardBatch, StnoKernelMatchesScalarOnOutOfRangeRawValues) {
  for (const Graph& g : topologies()) {
    const int n = g.nodeCount();
    std::vector<NodeId> all(static_cast<std::size_t>(n));
    for (NodeId p = 0; p < n; ++p) all[static_cast<std::size_t>(p)] = p;
    for (const bool fixedTree : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const std::unique_ptr<Stno> stno =
            fixedTree ? std::make_unique<Stno>(g, portOrderDfsTree(g))
                      : std::make_unique<Stno>(g);
        Rng rng(seed);
        stno->randomize(rng);
        for (NodeId p = 0; p < n; ++p) {
          // The overlay arena is the last: W, η, the Start and π rows.
          std::vector<int> raw = stno->rawNode(p);
          const auto overlay = static_cast<std::size_t>(2 + 2 * g.degree(p));
          for (std::size_t i = raw.size() - overlay; i < raw.size(); ++i)
            if (rng.chance(0.3)) raw[i] = rng.below(4 * n) - 2 * n;
          stno->setRawNode(p, raw);
        }
        expectKernelMatchesScalar(*stno, all);
      }
    }
  }
}

struct RunRecord {
  std::vector<int> config;
  StepCount moves = 0;
  StepCount steps = 0;
  StepCount rounds = 0;
  std::vector<Move> enabled;
};

RunRecord runPipeline(Proto kind, const Graph& g, DaemonKind daemonKind,
                      std::uint64_t seed, bool reference) {
  const std::unique_ptr<Protocol> proto = makeProto(kind, g);
  Rng rng(seed);
  proto->randomize(rng);
  RunStats stats;
  if (reference) {
    const auto daemon = oracle::makeReferenceDaemon(daemonKind);
    oracle::ReferenceSimulator sim(*proto, *daemon, rng);
    stats = sim.runToQuiescence(4000);
  } else {
    const std::unique_ptr<Daemon> daemon = makeDaemon(daemonKind);
    Simulator sim(*proto, *daemon, rng);
    stats = sim.runToQuiescence(4000);
  }
  RunRecord rec;
  rec.config = proto->rawConfiguration();
  rec.moves = stats.moves;
  rec.steps = stats.steps;
  rec.rounds = stats.rounds;
  rec.enabled = proto->enabledMoves();
  return rec;
}

TEST(GuardBatch, RunsMatchTheScalarReferenceSimulator) {
  const DaemonKind daemons[] = {DaemonKind::kCentral,
                                DaemonKind::kDistributed,
                                DaemonKind::kSynchronous};
  std::uint64_t seed = 1000;
  for (const Graph& g : topologies()) {
    for (const Proto kind : kProtos) {
      for (const DaemonKind daemon : daemons) {
        ++seed;
        const RunRecord batch = runPipeline(kind, g, daemon, seed, false);
        const RunRecord scalar = runPipeline(kind, g, daemon, seed, true);
        EXPECT_EQ(batch.config, scalar.config);
        EXPECT_EQ(batch.moves, scalar.moves);
        EXPECT_EQ(batch.steps, scalar.steps);
        EXPECT_EQ(batch.rounds, scalar.rounds);
        EXPECT_EQ(batch.enabled, scalar.enabled);
      }
    }
  }
}

/// One enabled move per processor, node-ascending — a maximal
/// simultaneous selection as the engine expects it.
std::vector<Move> maximalSelection(const Protocol& proto) {
  std::vector<Move> moves;
  NodeId lastNode = kNoNode;
  for (const Move& m : proto.enabledMoves()) {
    if (m.node == lastNode) continue;
    moves.push_back(m);
    lastNode = m.node;
  }
  return moves;
}

TEST(GuardBatch, WriteLogRestoreRoundtripOnFullConfigurationPath) {
  // InitBasedOrientation: non-neighborhood-local guards WITH arenas —
  // the write-logging full-configuration path.  execute + undo must
  // restore the pre-step configuration exactly, and re-executing must
  // reproduce the same post state.
  const Graph g = Graph::grid(4, 4);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    InitBasedOrientation proto(g);
    Rng rng(seed);
    proto.randomize(rng);
    SimultaneousEngine engine(proto);
    const std::vector<Move> moves = maximalSelection(proto);
    if (moves.empty()) continue;
    const std::vector<int> pre = proto.rawConfiguration();
    engine.execute(moves);
    const std::vector<int> post = proto.rawConfiguration();
    engine.undo();
    EXPECT_EQ(proto.rawConfiguration(), pre);
    engine.execute(moves);
    EXPECT_EQ(proto.rawConfiguration(), post);
  }
}

TEST(GuardBatch, BatchedExecuteUndoRoundtrip) {
  // The same roundtrip through the batched doExecuteSimultaneous fast
  // path, which all four protocols here take (LexDfsTree alone keeps
  // the rollback path; sync_equiv_test covers it).
  for (const Proto kind : kProtos) {
    const Graph g = Graph::ring(12);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const std::unique_ptr<Protocol> proto = makeProto(kind, g);
      Rng rng(seed);
      proto->randomize(rng);
      SimultaneousEngine engine(*proto);
      const std::vector<Move> moves = maximalSelection(*proto);
      if (moves.empty()) continue;
      const std::vector<int> pre = proto->rawConfiguration();
      engine.execute(moves);
      const std::vector<int> post = proto->rawConfiguration();
      engine.undo();
      EXPECT_EQ(proto->rawConfiguration(), pre);
      engine.execute(moves);
      EXPECT_EQ(proto->rawConfiguration(), post);
    }
  }
}

}  // namespace
}  // namespace ssno
