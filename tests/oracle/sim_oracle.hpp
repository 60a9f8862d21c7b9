// Reference simulator — the step semantics of paper §2.1.2 written the
// slow, obvious way, as the oracle for core/scheduler's Simulator.
// Every step rescans Protocol::enabledMoves() (the scalar virtual guard
// loop, no cache), selects with a reference daemon over that node-major
// vector (tests/oracle/daemon_oracle.hpp), executes a one-move step
// directly and a multi-move step with bruteForceStep (every move reads
// the full pre-step configuration), and recomputes round accounting
// from the whole pending set after the step.  Production must match it
// move for move: the selected moves, the RNG draws, the configuration
// and the move, step and round counts.
#ifndef SSNO_TESTS_ORACLE_SIM_ORACLE_HPP
#define SSNO_TESTS_ORACLE_SIM_ORACLE_HPP

#include <functional>
#include <vector>

#include "core/protocol.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "oracle/daemon_oracle.hpp"
#include "oracle/step_oracle.hpp"

namespace ssno::oracle {

class ReferenceSimulator {
 public:
  using Predicate = std::function<bool()>;
  using MoveObserver = std::function<void(const Move&)>;

  ReferenceSimulator(Protocol& protocol, ReferenceDaemon& daemon, Rng& rng)
      : protocol_(protocol), daemon_(daemon), rng_(rng) {}

  void setMoveObserver(MoveObserver obs) { observer_ = std::move(obs); }

  /// Runs until `goal` holds (checked before every step), no move is
  /// enabled, or `maxMoves` moves have executed — Simulator::runUntil's
  /// loop, with rounds counted from the start of this run.
  RunStats runUntil(const Predicate& goal, StepCount maxMoves) {
    RunStats stats;
    roundActive_ = false;
    rounds_ = 0;
    while (stats.moves < maxMoves) {
      if (goal && goal()) {
        stats.converged = true;
        break;
      }
      const std::vector<Move> executed = stepOnce();
      if (executed.empty()) {
        stats.terminal = true;
        stats.converged = goal && goal();
        break;
      }
      stats.moves += static_cast<StepCount>(executed.size());
      ++stats.steps;
    }
    if (!stats.converged && !stats.terminal && goal && goal())
      stats.converged = true;
    stats.rounds = rounds_;
    return stats;
  }

  RunStats runToQuiescence(StepCount maxMoves) {
    return runUntil(nullptr, maxMoves);
  }

  /// One daemon step; returns the executed moves (empty when none is
  /// enabled).
  std::vector<Move> stepOnce() {
    const std::vector<Move> enabled = protocol_.enabledMoves();
    if (enabled.empty()) return {};
    std::vector<Move> selected;
    daemon_.select(enabled, rng_, selected);
    if (selected.size() == 1)
      protocol_.execute(selected.front().node, selected.front().action);
    else
      (void)bruteForceStep(protocol_, selected);
    if (observer_)
      for (const Move& m : selected) observer_(m);
    accountRound(selected);
    return selected;
  }

 private:
  // A round opens with the processors that executed or are enabled
  // after the step; executed processors have served it; a pending
  // processor that is no longer enabled is neutralized; the round ends
  // when nobody is pending.
  void accountRound(const std::vector<Move>& executed) {
    const auto n = static_cast<std::size_t>(protocol_.graph().nodeCount());
    std::vector<bool> enabledNow(n, false);
    for (const Move& m : protocol_.enabledMoves())
      enabledNow[static_cast<std::size_t>(m.node)] = true;
    if (!roundActive_) {
      pending_.assign(n, false);
      for (const Move& m : executed)
        pending_[static_cast<std::size_t>(m.node)] = true;
      for (std::size_t p = 0; p < n; ++p)
        if (enabledNow[p]) pending_[p] = true;
      roundActive_ = true;
    }
    for (const Move& m : executed)
      pending_[static_cast<std::size_t>(m.node)] = false;
    bool anyPending = false;
    for (std::size_t p = 0; p < n; ++p) {
      if (pending_[p] && !enabledNow[p]) pending_[p] = false;
      anyPending = anyPending || pending_[p];
    }
    if (!anyPending) {
      ++rounds_;
      roundActive_ = false;
    }
  }

  Protocol& protocol_;
  ReferenceDaemon& daemon_;
  Rng& rng_;
  MoveObserver observer_;
  std::vector<bool> pending_;
  bool roundActive_ = false;
  StepCount rounds_ = 0;
};

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_SIM_ORACLE_HPP
