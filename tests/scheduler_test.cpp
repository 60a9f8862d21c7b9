// Unit tests for the Simulator: cost accounting, termination detection,
// shared-memory semantics of simultaneous moves, move observers.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/graph.hpp"
#include "toy_protocols.hpp"

namespace ssno {
namespace {

TEST(Simulator, RunsToQuiescenceAndCountsMoves) {
  ZeroProtocol proto(Graph::path(4), 3);
  CentralDaemon daemon;
  Rng rng(1);
  Simulator sim(proto, daemon, rng);
  const RunStats stats = sim.runToQuiescence(1000);
  EXPECT_TRUE(stats.terminal);
  EXPECT_TRUE(proto.allZero());
  EXPECT_EQ(stats.moves, 4);  // each node zeroes itself exactly once
  EXPECT_EQ(stats.steps, 4);  // central daemon: one move per step
}

TEST(Simulator, GoalPredicateStopsRun) {
  ZeroProtocol proto(Graph::path(4), 3);
  CentralDaemon daemon;
  Rng rng(2);
  Simulator sim(proto, daemon, rng);
  const RunStats stats =
      sim.runUntil([&proto] { return proto.value(0) == 0; }, 1000);
  EXPECT_TRUE(stats.converged);
}

TEST(Simulator, BudgetExhaustionReported) {
  OscillateProtocol proto(Graph::path(2));
  CentralDaemon daemon;
  Rng rng(3);
  Simulator sim(proto, daemon, rng);
  const RunStats stats = sim.runToQuiescence(10);
  EXPECT_FALSE(stats.terminal);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.moves, 10);
}

TEST(Simulator, SynchronousStepExecutesAllEnabled) {
  ZeroProtocol proto(Graph::path(5), 3);
  SynchronousDaemon daemon;
  Rng rng(4);
  Simulator sim(proto, daemon, rng);
  const RunStats stats = sim.runToQuiescence(1000);
  EXPECT_TRUE(stats.terminal);
  EXPECT_EQ(stats.moves, 5);
  EXPECT_EQ(stats.steps, 1);  // all five in one synchronous step
}

TEST(Simulator, SynchronousRoundIsOneRound) {
  ZeroProtocol proto(Graph::path(5), 3);
  SynchronousDaemon daemon;
  Rng rng(5);
  Simulator sim(proto, daemon, rng);
  const RunStats stats = sim.runToQuiescence(1000);
  EXPECT_EQ(stats.rounds, 1);
}

TEST(Simulator, MoveObserverSeesEveryMove) {
  ZeroProtocol proto(Graph::path(3), 3);
  RoundRobinDaemon daemon;
  Rng rng(6);
  Simulator sim(proto, daemon, rng);
  int observed = 0;
  sim.setMoveObserver([&observed](const Move&) { ++observed; });
  const RunStats stats = sim.runToQuiescence(1000);
  EXPECT_EQ(observed, stats.moves);
}

TEST(Simulator, StepOnceReturnsEmptyWhenTerminal) {
  ZeroProtocol proto(Graph::path(2), 3);
  CentralDaemon daemon;
  Rng rng(7);
  Simulator sim(proto, daemon, rng);
  (void)sim.runToQuiescence(100);
  EXPECT_TRUE(sim.stepOnce().empty());
}

// A protocol whose statement reads a neighbor: p copies the value of
// p + from, its right neighbor (from = +1) or its left one (from = -1).
// Under correct shared-memory semantics, when both nodes act in the
// same synchronous step, both right-hand sides must be evaluated
// against the pre-step configuration.  Moves run node-ascending, so
// copying from the left reads an actor that has already executed: the
// engine must roll it back first, or, when the guards are declared
// non-local (always safe), restore it through the full-configuration
// write log.
class CopyProtocol final : public Protocol {
 public:
  CopyProtocol(Graph g, int from, bool local)
      : Protocol(std::move(g)),
        from_(from),
        local_(local),
        arena_(graph(), DigitOrder::kLeastFirst),
        v_(arena_.nodeColumn({.base = 4})) {
    addArena(arena_);
    for (NodeId p = 0; p < graph().nodeCount(); ++p) v_[p] = p + 1;
  }
  [[nodiscard]] int actionCount() const override { return 1; }
  [[nodiscard]] std::string actionName(int) const override { return "Copy"; }
  [[nodiscard]] bool enabled(NodeId p, int a) const override {
    const NodeId q = p + from_;
    return a == 0 && q >= 0 && q < graph().nodeCount() && v_[p] != v_[q];
  }
  [[nodiscard]] bool guardsAreNeighborhoodLocal() const override {
    return local_;
  }
  void doExecute(NodeId p, int) override { v_[p] = v_[p + from_]; }
  [[nodiscard]] std::string dumpNode(NodeId p) const override {
    return std::to_string(v_[p]);
  }
  [[nodiscard]] int value(NodeId p) const { return v_[p]; }

 private:
  int from_;
  bool local_;
  StateArena arena_;
  NodeColumn v_;
};

TEST(Simulator, SimultaneousMovesReadPreStepState) {
  // v = (1, 2, 3) on a path, and both enabled nodes act in one
  // synchronous step, reading the OLD values: copying from the right
  // must give (2, 3, 3), from the left (1, 1, 2) — node 2 copies the old
  // v_1 = 2, not the new 1 — on the rollback path and the write log.
  struct Case {
    int from;
    bool local;
    std::vector<int> want;
  };
  for (const Case& c : {Case{+1, true, {2, 3, 3}}, Case{-1, true, {1, 1, 2}},
                        Case{-1, false, {1, 1, 2}}}) {
    SCOPED_TRACE("from " + std::to_string(c.from) +
                 (c.local ? " local" : " non-local"));
    CopyProtocol proto(Graph::path(3), c.from, c.local);
    SynchronousDaemon daemon;
    Rng rng(8);
    Simulator sim(proto, daemon, rng);
    EXPECT_EQ(sim.stepOnce().size(), 2u);
    EXPECT_EQ((std::vector<int>{proto.value(0), proto.value(1),
                                proto.value(2)}),
              c.want);
  }
}

TEST(Simulator, RoundCountMatchesDiffusionDepth) {
  // Copying from the right on a path: values propagate leftward one hop
  // per round under the synchronous daemon.
  CopyProtocol proto(Graph::path(3), +1, true);
  SynchronousDaemon daemon;
  Rng rng(9);
  Simulator sim(proto, daemon, rng);
  const RunStats stats = sim.runToQuiescence(100);
  EXPECT_TRUE(stats.terminal);
  EXPECT_EQ(proto.value(0), 3);
  EXPECT_EQ(stats.rounds, 2);
}

}  // namespace
}  // namespace ssno
