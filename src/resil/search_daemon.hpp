// resil/search_daemon — adversarial daemons that HUNT for worst-case
// schedules instead of sampling random ones.
//
// SearchingDaemon is a central-style daemon (one move per step) that
// serves, at every step, the enabled move whose execution maximizes
// Protocol::potentialHint() — "stay as far from quiescence as the
// guarded commands allow".  Two scoring modes:
//
//  * greedy (lookahead = 0): tentatively execute each candidate, read
//    the potential, undo by restoring the actor's raw state (statements
//    write only the actor's own variables, so a single-node restore is
//    a bit-exact undo);
//  * bounded lookahead (lookahead = k >= 1): snapshot the whole
//    configuration through the protocol's StateArena columns, roll each
//    candidate out k further inner-greedy moves, score the final
//    potential, restore.
//
// The search is deterministic and consumes NO randomness: ties break
// toward the first candidate in node-major order, so the same seed
// (which only drives fault injection and initial scrambling) reproduces
// the same schedule bit-identically, because scoring mutations are
// perfectly undone.
//
// Fairness safeguard: DFTNO is only guaranteed to stabilize under a
// weakly fair daemon, so a pure greedy adversary could starve it
// forever and every episode would be a meaningless budget-exhaustion.
// The daemon tracks per-MOVE ages — (node, action) granularity —
// counting enabled-selections since the move last executed; once an
// age reaches the fairness bound that move executes (most starved
// first, node-major first on ties).  Node-level ages are not enough:
// the greedy adversary keeps every node busy with token moves while
// the continuously-enabled EdgeLabel corrections never run, a livelock
// that per-node bookkeeping calls "fair".  The age also survives
// enabledness flicker (briefly neutralizing a victim through a
// neighbor's move cannot reset its counter), so the override dominates
// continuously-enabled time: maximally slow within weak fairness, but
// always convergent.
//
// Every served move is appended to schedule(); feed that to a
// ReplayDaemon to re-drive the identical computation (the certification
// path: a worst-case report ships its schedule, and replaying it must
// reproduce the exact move count).
#ifndef SSNO_RESIL_SEARCH_DAEMON_HPP
#define SSNO_RESIL_SEARCH_DAEMON_HPP

#include <span>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "core/types.hpp"

namespace ssno::resil {

class SearchingDaemon final : public Daemon {
 public:
  /// `lookahead` = extra inner-greedy moves rolled out per candidate
  /// (0 = pure greedy).  `fairnessBound` = enabled-selections a move
  /// may wait unexecuted before it is force-served; 0 picks the
  /// default 16n.
  explicit SearchingDaemon(Protocol& protocol, int lookahead = 0,
                           int fairnessBound = 0);

  void selectInto(const EnabledView& enabled, Rng& rng,
                  std::vector<Move>& out) override;
  [[nodiscard]] std::string name() const override;

  /// The moves served so far, in order (the worst-case schedule).
  [[nodiscard]] const std::vector<Move>& schedule() const {
    return schedule_;
  }

 private:
  void choose(std::span<const Move> enabled, std::vector<Move>& out);
  [[nodiscard]] double scoreGreedy(const Move& m);
  [[nodiscard]] double scoreLookahead(const Move& m);
  void saveConfiguration();
  void restoreConfiguration();

  Protocol* protocol_;
  int lookahead_;
  int fairnessBound_;
  std::vector<Move> schedule_;

  // Fairness ages, indexed node*actionCount+action: selections at
  // which the move was enabled since it last executed (persisting
  // across enabledness flicker).
  std::vector<StepCount> age_;

  // Reused buffers.
  std::vector<Move> viewMoves_;   // selectInto's materialized candidates
  std::vector<Move> rollout_;     // inner-rollout enabled moves
  std::vector<StateArena::Scratch> scratch_;  // per arena
  std::vector<NodeId> allNodes_;  // identity list for arena snapshots
};

/// Serves a prerecorded schedule move by move; the certification
/// replayer.  Throws std::runtime_error when the schedule runs out or
/// a scheduled move is not enabled (the recorded computation and the
/// replayed one have diverged — the report was not reproducible).
/// Consumes no randomness.
class ReplayDaemon final : public Daemon {
 public:
  explicit ReplayDaemon(std::vector<Move> schedule)
      : schedule_(std::move(schedule)) {}

  void selectInto(const EnabledView& enabled, Rng& rng,
                  std::vector<Move>& out) override;
  [[nodiscard]] std::string name() const override { return "replay"; }

  /// Moves served so far (== the cursor into the schedule).
  [[nodiscard]] std::size_t served() const { return cursor_; }

 private:
  std::vector<Move> schedule_;
  std::size_t cursor_ = 0;
};

}  // namespace ssno::resil

#endif  // SSNO_RESIL_SEARCH_DAEMON_HPP
