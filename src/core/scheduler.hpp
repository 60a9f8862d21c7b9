// Simulator: drives a Protocol under a Daemon and accounts for cost.
//
// Cost metrics:
//  * moves  — individual processor actions executed (the paper's "steps";
//             complexity bounds O(n), O(h) are stated in these units),
//  * steps  — computation steps of the daemon (a step may contain several
//             simultaneous moves under the distributed/synchronous daemon),
//  * rounds — asynchronous rounds: a round ends once every processor that
//             was continuously enabled since the round began has executed
//             or been neutralized (the standard measure of time in
//             self-stabilization).
//
// Simultaneous moves follow the shared-memory distributed-daemon
// semantics: all guards and statement right-hand sides are evaluated
// against the configuration at the beginning of the step — executed by
// the columnar SimultaneousEngine (core/sync_engine): column-batched
// snapshot/restore over the protocol's StateArena columns plus one
// deferred, deduplicated dirty pass per step.
//
// Hot path: the simulator maintains the enabled-move set incrementally
// (EnabledCache over the Protocol's dirty notifications) and hands the
// daemon the cache's bitmask EnabledView directly — no O(#enabled) move
// vector is materialized per step, and all buffers are reused, so
// steady-state stepping evaluates only the guards a move could have
// changed and performs no heap allocations.  The reference simulator
// the tests hold this one to (tests/oracle/sim_oracle.hpp) rescans the
// guards every step, selects over the materialized move vector,
// executes multi-move steps by brute force and recomputes rounds from
// the whole pending set.  Nothing else may step a Simulator's Protocol
// while the Simulator is in use; state writes from outside a step
// (fault injection, restores in goal predicates) are picked up through
// the dirtying API.
#ifndef SSNO_CORE_SCHEDULER_HPP
#define SSNO_CORE_SCHEDULER_HPP

#include <functional>
#include <span>
#include <vector>

#include "core/daemon.hpp"
#include "core/enabled_cache.hpp"
#include "core/protocol.hpp"
#include "core/rng.hpp"
#include "core/sync_engine.hpp"
#include "core/types.hpp"

namespace ssno {

struct RunStats {
  StepCount moves = 0;
  StepCount steps = 0;
  StepCount rounds = 0;
  bool converged = false;   ///< predicate became true within the budget
  bool terminal = false;    ///< reached a configuration with no enabled move
};

class Simulator {
 public:
  using Predicate = std::function<bool()>;
  /// Observer invoked after every executed move (for traces/statistics).
  using MoveObserver = std::function<void(const Move&)>;
  /// Observer of the post-step enabled-status change feed: called once
  /// per step with the nodes whose ANY-action-enabled status may have
  /// flipped (may contain duplicates), whether the cache was fully
  /// rebuilt since the last step (the list is meaningless then — resync
  /// from the view), and the post-step view.  Consumers (fault-impact
  /// tracking, status traces) react to O(#changed) nodes instead of
  /// walking the move list every step.
  using StatusObserver = std::function<void(
      std::span<const NodeId>, bool fullInvalidate, const EnabledView&)>;

  Simulator(Protocol& protocol, Daemon& daemon, Rng& rng)
      : protocol_(protocol),
        daemon_(daemon),
        rng_(rng),
        cache_(protocol),
        engine_(protocol) {
    // Round accounting consumes the cache's status-change feed so
    // neutralization is O(#changed) per step instead of O(#pending).
    cache_.setTrackStatusChanges(true);
    // The Simulator never exposes the engine's undo(), so the batched
    // fast path need not keep a pre-step actor snapshot per dense step.
    engine_.setUndoCapture(false);
  }

  ~Simulator() { flushStats(); }

  /// Publishes batched step/move telemetry (and the cache's) to the obs
  /// registry.  Per-step counts accumulate in plain members — even a
  /// relaxed atomic per step is a measurable fraction of a 3M moves/s
  /// loop — and flush every ~1K steps, at the end of every run, and at
  /// destruction, so live introspection lags by at most the batch.
  void flushStats();

  /// Runs until `goal` holds (checked before every step), the protocol is
  /// terminal, or `maxMoves` moves have executed.
  RunStats runUntil(const Predicate& goal, StepCount maxMoves);

  /// Runs until no action is enabled (silent protocols) or budget spent.
  RunStats runToQuiescence(StepCount maxMoves);

  /// Executes exactly one daemon step (if any move is enabled).
  /// Returns the moves executed (a reference to an internal buffer,
  /// valid until the next step).
  const std::vector<Move>& stepOnce();

  /// Rounds completed since construction / the last resetRound() (the
  /// same counter runUntil reports).  Lets step-at-a-time drivers — the
  /// resilience campaign runner firing fault-plan events at round
  /// boundaries — read round progress without finishing a run.
  [[nodiscard]] StepCount roundsSoFar() const { return roundsDone_; }

  void setMoveObserver(MoveObserver obs) { observer_ = std::move(obs); }
  void setStatusObserver(StatusObserver obs) {
    statusObserver_ = std::move(obs);
  }

  /// Guard evaluations since construction (node × action), the
  /// simulator's share of sim_guard_evals_total.
  [[nodiscard]] std::uint64_t guardEvals() const {
    return cache_.guardEvals();
  }

 private:
  void accountRound(const std::vector<Move>& executed);
  void resetRound();

  Protocol& protocol_;
  Daemon& daemon_;
  Rng& rng_;
  EnabledCache cache_;
  SimultaneousEngine engine_;
  MoveObserver observer_;
  StatusObserver statusObserver_;

  // Reused buffers (no allocations in steady state).
  std::vector<Move> selected_;

  // Round bookkeeping.  Invariant between calls: every processor with
  // pending_ set appears in pendingList_ (the list may additionally
  // hold already-served entries — it is only compacted on full cache
  // invalidations and cleared at round end); pendingCount_ counts the
  // set flags (zero when !roundActive_).
  std::vector<bool> pending_;         // processors owing a move this round
  std::vector<NodeId> pendingList_;   // marked this round, in mark order
  std::size_t pendingCount_ = 0;
  bool roundActive_ = false;
  StepCount roundsDone_ = 0;

  // Telemetry accumulators (flushed to obs counters by flushStats()).
  std::uint64_t statSteps_ = 0;
  std::uint64_t statMoves_ = 0;
};

}  // namespace ssno

#endif  // SSNO_CORE_SCHEDULER_HPP
