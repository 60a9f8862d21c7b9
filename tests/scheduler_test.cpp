// Unit tests for the Simulator: cost accounting, termination detection,
// shared-memory semantics of simultaneous moves, move observers.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

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

// A protocol whose statement reads a neighbor: p copies its right
// neighbor's value.  Under correct shared-memory semantics, when both
// nodes act in the same synchronous step, both right-hand sides must be
// evaluated against the pre-step configuration.
class CopyRightProtocol final : public Protocol {
 public:
  explicit CopyRightProtocol(Graph g)
      : Protocol(std::move(g)),
        arena_(graph(), DigitOrder::kLeastFirst),
        v_(arena_.nodeColumn({.base = 4})) {
    addArena(arena_);
    for (NodeId p = 0; p < graph().nodeCount(); ++p) v_[p] = p + 1;
  }
  [[nodiscard]] int actionCount() const override { return 1; }
  [[nodiscard]] std::string actionName(int) const override { return "Copy"; }
  [[nodiscard]] bool enabled(NodeId p, int a) const override {
    return a == 0 && p + 1 < graph().nodeCount() && v_[p] != v_[p + 1];
  }
  void doExecute(NodeId p, int) override { v_[p] = v_[p + 1]; }
  [[nodiscard]] std::string dumpNode(NodeId p) const override {
    return std::to_string(v_[p]);
  }
  [[nodiscard]] int value(NodeId p) const { return v_[p]; }

 private:
  StateArena arena_;
  NodeColumn v_;
};

TEST(Simulator, SimultaneousMovesReadPreStepState) {
  CopyRightProtocol proto(Graph::path(3));
  SynchronousDaemon daemon;
  Rng rng(8);
  Simulator sim(proto, daemon, rng);
  // Both node 0 and node 1 are enabled; a synchronous step must give
  // v = (2, 3, 3): node 0 copies the OLD v_1 = 2, not the new 3.
  const auto executed = sim.stepOnce();
  EXPECT_EQ(executed.size(), 2u);
  EXPECT_EQ(proto.value(0), 2);
  EXPECT_EQ(proto.value(1), 3);
  EXPECT_EQ(proto.value(2), 3);
}

TEST(Simulator, RoundCountMatchesDiffusionDepth) {
  // CopyRight on a path: values propagate leftward one hop per round
  // under the synchronous daemon.
  CopyRightProtocol proto(Graph::path(3));
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
