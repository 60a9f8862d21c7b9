// SimultaneousEngine — the columnar simultaneous-step executor.
//
// A simultaneous step (distributed / synchronous daemon) executes a set
// of moves, at most one per processor, under shared-memory semantics:
// every guard and statement right-hand side reads the configuration at
// the beginning of the step.  Since a statement writes only its own
// processor's variables, it suffices to snapshot the acting processors,
// roll already-executed actors inside each mover's closed neighborhood
// back to their pre-step values before it executes, and leave every
// actor at its post state when the step ends.
//
// PR 4 left this path per-node: each actor round-tripped through
// rawNode()/setRawNode() std::vector<int> copies (for DFTNO, two heap
// allocations per rawNode call), and every rollback fired an immediate
// dirty notification — a dense synchronous step at n = 1e5 allocated
// ~n small vectors and produced ~n·Δ redundant dirty events.  This
// engine rebuilds the path on three primitives:
//
//   * column-batched snapshot/restore — the acting set's pre-step state
//     is captured through StateArena::snapshotNodes (one tight loop per
//     column of the protocol's declared arenas, no per-node vectors);
//     single-actor rollbacks restore one scratch slice per column;
//   * a WordBitset actor set — neighborhood-rollback membership tests
//     are O(1) bit probes (moves arrive node-ascending, so "q acted
//     before p" is just q < p);
//   * the Protocol simultaneous-step bracket — dirty notifications are
//     deferred for the whole step and expanded once, deduplicated, over
//     actors ∪ N(actors), so the EnabledCache refresh that follows does
//     O(|dirty set|) work instead of absorbing per-rollback events.
//
// Post states are captured lazily: an actor's post state is saved (flat
// append, no per-node vector) only the first time a later-acting
// neighbor rolls it back, and re-applied at the end of the step —
// actors without later-acting neighbors are never copied at all.
//
// Protocols that implement Protocol::doExecuteSimultaneous skip the
// rollback machinery entirely: after the actor snapshot (kept so undo()
// works unchanged) the whole move set is handed to the protocol, which
// computes every outcome against the pre-step columns and commits them
// in a second phase — no neighborhood rollbacks, no post captures.
// Dftc, Dftno, BfsTree and Stno batch; LexDfsTree keeps the rollback
// path, and the init-based baseline the write log below
// (SimultaneousEngine.EachProtocolTakesItsPath pins which is which).
//
// Protocols whose guards read beyond N[p] (guardsAreNeighborhoodLocal()
// == false) take the full-configuration path instead.  Columnar
// protocols write-log the acting set: snapshot the actors once, and
// after each move capture the actor's post state and put its pre state
// back — the configuration is inductively pre-step before every
// execution — then re-apply the logged post states at the end (O(k·
// state) instead of snapshotting and restoring every column per move).
//
// Every protocol declares its whole state in arenas (Protocol::arenas;
// one without state declares none), so every step is columnar.  The
// oracle is the brute-force step of tests/oracle/step_oracle.hpp, which
// runs every move from the whole pre-step configuration:
// SimultaneousEngine.MatchesBruteForceAndUndoRestores (sync_equiv_test)
// compares single steps on every path,
// Simulator.SimultaneousMovesReadPreStepState (scheduler_test) has a
// statement read an earlier actor on the rollback path and on the write
// log, and the equivalence suites compare whole runs.  undo() restores
// the pre-step configuration of the last step (with dirty
// notifications), which is what lets the model checker expand
// synchronous successors in place.
#ifndef SSNO_CORE_SYNC_ENGINE_HPP
#define SSNO_CORE_SYNC_ENGINE_HPP

#include <span>
#include <vector>

#include "core/bitwords.hpp"
#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "core/types.hpp"

namespace ssno {

class SimultaneousEngine {
 public:
  explicit SimultaneousEngine(Protocol& protocol);

  /// Executes `moves` (node-ascending, at most one per processor, all
  /// enabled) as one simultaneous step: the neighborhood-rollback path
  /// (or the protocol's batch), or the write-logging path for
  /// non-neighborhood-local guards.
  void execute(std::span<const Move> moves);

  /// Restores the configuration from before the last execute() call,
  /// with dirty notifications — the model checker's in-place successor
  /// rollback.  Valid once per step.
  void undo();

  /// When off, the batched fast path skips the actor pre-state snapshot
  /// it keeps only for undo() — the rollback and write-logging paths
  /// still capture, since they read pre_ for correctness.  undo() after
  /// an uncaptured step traps.  The Simulator turns this off for its
  /// internal engine (it never exposes undo); standalone engines — the
  /// model checker's in-place successor expansion — keep the default.
  void setUndoCapture(bool on) { undoCapture_ = on; }

 private:
  void executeColumnar(std::span<const Move> moves);
  void executeColumnarFull(std::span<const Move> moves);

  /// Appends `p`'s current (post) state to the flat capture buffers.
  void capturePost(NodeId p);
  /// Restores capture index `ci` into its node's columns.
  void restoreCapture(std::size_t ci);

  Protocol& protocol_;
  std::span<StateArena* const> arenas_;
  bool undoable_ = false;  // pre_ holds the last step's actors
  bool undoCapture_ = true;

  // Columnar-path scratch (reused; no steady-state allocations).
  std::vector<NodeId> actors_;
  bits::WordBitset actorBits_;
  std::vector<std::int32_t> actorSlot_;  // node -> index in actors_, or -1
  std::vector<StateArena::Scratch> pre_;  // per arena, actors' pre state
  std::vector<std::vector<int>> postData_;    // per arena, flat captures
  std::vector<std::size_t> postOff_;          // capture ci, arena a ->
                                              // postData_[a] start offset
  std::vector<NodeId> captured_;              // capture order
  std::vector<std::uint8_t> capturedFlag_;    // per actor slot
};

}  // namespace ssno

#endif  // SSNO_CORE_SYNC_ENGINE_HPP
