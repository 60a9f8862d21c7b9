// Self-stabilizing depth-first token circulation on arbitrary rooted
// networks — the substrate assumed by the paper's DFTNO protocol
// (standing in for Datta-Johnen-Petit-Villain, SIROCCO'98 [10]).
//
// A single token perpetually traverses the network in deterministic
// depth-first (port) order, rooted at r.  One traversal = one *round*;
// in a legitimate round every processor receives the token exactly once
// (`Forward`), and the token returns to each processor once per incident
// tree edge (`Advance`, the paper's Backtrack).
//
// Per-processor variables (all written only by their owner):
//   S   ∈ {C} ∪ {0..Δp−1}  idle, or pointer to the port being explored
//   col ∈ {0,1}            round parity; "visited this round" ⇔ col equals
//                          the color the root chose at round start
//   d   ∈ {0..N−1}         depth on the token chain (root implicitly 0)
//   par ∈ {0..Δp−1}        port of the adopted parent (non-root only)
//
// Legitimate behaviour (clean round, color b_old everywhere):
//   Start    (root) flips col_r to b_new and points at its first port.
//   Forward  (p)    an unvisited processor pointed at by a differently
//                   colored neighbor adopts it as parent (smallest such
//                   port), takes color/depth from it, and points at its
//                   first unvisited neighbor — or stays C if none
//                   (the token immediately bounces back).
//   Advance  (p)    when p's current child is idle again with p's color
//                   (finished), p points at its next unvisited neighbor,
//                   or retracts to C (backtracks) if none remain.
// When the root retracts and sees no unvisited neighbor, the round is
// over; all colors equal b_new, which is exactly Start's guard for the
// next round.  The color flip doubles as the cleaning wave, so no
// separate "done" state is needed.
//
// Statements.  Each action's statement is written once, in outcome(): a
// pure function of the pre-move configuration giving p's new variables
// and the event the move fires (Start, Forward, or Advance — the
// paper's Backtrack).  A sequential step commits its outcome at once; a
// synchronous batch computes every outcome before it commits any.  An
// overlay (DFTNO) composes its macros from that event.
//
// Stabilization.  Arbitrary initial states may contain orphan pointer
// chains, pointer cycles, and aliased colors.  Three mechanisms repair
// them:
//   * Error(p): a non-root p whose adopted parent is not pointing at p
//     with depth d_p−1 and p's color retracts to C.  Depth consistency
//     strictly increases along valid parent links, so a pointer cycle
//     cannot be consistently deep — some member is always in Error — and
//     every maximal valid chain is anchored at the root (only the root
//     may sit at depth 0).  Since the root has a single pointer, the
//     valid chain is unique; all bogus structure unravels.
//   * A processor pointed at by a stale pointer simply looks visited (or
//     gets legitimately adopted); its pointer owner advances past it.
//   * Color aliasing at worst causes processors to be skipped during the
//     first complete round; that round still uniformizes all colors, so
//     every subsequent round is perfect.
//   * Resume(root): an idle root that still sees an unvisited-looking
//     neighbor re-extends the chain without flipping its color.  In a
//     clean execution the root only retracts once the whole network is
//     visited, so Resume is never enabled legitimately; it exists to
//     escape corrupt all-idle configurations with mixed colors, which
//     would otherwise deadlock (Start requires uniformly colored
//     neighbors).
//   * StaleChild(p): a processor pointing at a neighbor that holds a
//     pointer but never adopted p as its parent (or at the root, which
//     adopts nobody) advances past it.  Without this rule, corrupt
//     mutual-point configurations (p→x and x→p with consistent colors)
//     deadlock.  To keep the rule from re-selecting the same stale
//     target, the "first unvisited neighbor" choice skips neighbors that
//     currently hold pointers — harmless in clean rounds, where an
//     unvisited neighbor is always idle.
//
// Like the substrate it stands in for ([10]; see Chapter 5 of the
// paper), stabilization is guaranteed under a *weakly fair* daemon: a
// node whose correction action stays enabled must eventually be served.
// The model checker verifies exactly this (Fairness::kWeaklyFair): no
// illegitimate configuration is terminal, and no illegitimate cycle is
// weakly-fair-feasible.
// The composed system is verified mechanically: exhaustive model checking
// on small graphs (tests/dftc_modelcheck_test.cpp) and Monte-Carlo stress
// on larger ones.
//
// The set of legitimate configurations L_TC is the *orbit* of the clean
// round-boundary configuration (all S=C, col=0, d=0, par=0): the
// legitimate execution is deterministic (exactly one substrate action
// enabled), so walking it from the clean reset visits a finite prefix
// (the first round, which fills in d and par) and then a cycle; L_TC is
// every configuration of that walk, prefix included (DESIGN.md
// "Legitimate sets").  The walk is recorded once, lazily, in an
// OrbitIndex (core/orbit_index.hpp) on a scratch instance, and a check
// costs O(writes since the previous check) — a Zobrist fingerprint kept
// current from the writer feed and an index probe — plus, on a hit, an
// O(n) exact confirmation against the recorded per-processor timelines.
#ifndef SSNO_DFTC_DFTC_HPP
#define SSNO_DFTC_DFTC_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/orbit_index.hpp"
#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "core/types.hpp"

namespace ssno {

class Dftc final : public Protocol {
 public:
  enum Action : int {
    kStart = 0,
    kResume = 1,
    kForward = 2,
    kAdvance = 3,
    kStaleChild = 4,
    kError = 5,
  };
  static constexpr int kActionCount = 6;

  explicit Dftc(Graph graph);

  // ---- Protocol interface ----
  [[nodiscard]] int actionCount() const override { return kActionCount; }
  [[nodiscard]] std::string actionName(int action) const override;
  [[nodiscard]] bool enabled(NodeId p, int action) const override;
  /// Fused columnar kernel: one neighborhood walk per idle node, O(1)
  /// for pointer-holding nodes — vs up to six virtual enabled() calls
  /// each re-walking the neighborhood.  Bit-identical to the scalar
  /// guards (GuardBatch.KernelsMatchScalarOnRandomizedStates).
  void evaluateGuards(std::span<const NodeId> nodes,
                      std::uint64_t* masks) const override;
  [[nodiscard]] std::string dumpNode(NodeId p) const override;

  // ---- Substrate-specific API ----
  /// Any substrate action enabled at p — the paper's Token(p) predicate
  /// (p currently holds, or is about to act on, the token).
  [[nodiscard]] bool holdsToken(NodeId p) const;

  /// L_TC: the current configuration lies on the legitimate orbit.
  /// O(writes since the previous check), plus O(n) when it does (the
  /// exact confirmation of the fingerprint hit); the first call builds the
  /// orbit index and arms this protocol's writer feed (non-const for
  /// that reason — the configuration and the dirty set are untouched).
  [[nodiscard]] bool isLegitimate();

  /// The recorded walk behind L_TC, built at the first request on a
  /// scratch instance (Dftno checks its substrate layer against it).
  [[nodiscard]] const OrbitIndex& orbitIndex();

  /// Resets to the clean round boundary: all S=C, col=0, d=0, par=0.
  void resetClean();

  /// Raw variable access (used by tests and by DFTNO's parent queries).
  [[nodiscard]] bool isIdle(NodeId p) const { return s_[p] == kIdle; }
  [[nodiscard]] Port pointer(NodeId p) const {
    return s_[p] == kIdle ? kNoPort : s_[p];
  }
  [[nodiscard]] int color(NodeId p) const { return col_[p]; }
  [[nodiscard]] int depth(NodeId p) const {
    return p == graph().root() ? 0 : d_[p];
  }
  [[nodiscard]] Port parentPort(NodeId p) const { return par_[p]; }

  /// Number of variable bits per processor (space-complexity reporting):
  /// S: log(Δp+1), col: 1, d: log N, par: log Δp  (non-root).
  [[nodiscard]] double stateBits(NodeId p) const;

  /// ---- Statements, two-phase: compute, then commit ------------------
  /// Post-state of substrate move (p, action) evaluated against the
  /// current configuration, plus the event the move fires, so an overlay
  /// protocol (DFTNO) composes its macro against the same pre-move state.
  /// outcome performs no writes; commit installs it without dirtying (the
  /// caller's wrapper or batch driver records the writer).  Every step,
  /// sequential or batched, runs this one statement path.
  struct Outcome {
    enum class Event { kNone, kRoundStart, kForward, kBacktrack };
    int s = -1;
    int col = 0;
    int d = 0;
    int par = 0;
    Event event = Event::kNone;
    NodeId peer = kNoNode;  ///< Forward's parent / Backtrack's finished child
  };
  [[nodiscard]] Outcome outcome(NodeId p, int action) const;
  // Inline: called once per move, inside the dense-step commit loops too.
  void commit(NodeId p, const Outcome& o) {
    s_[p] = o.s;
    col_[p] = o.col;
    d_[p] = o.d;
    par_[p] = o.par;
  }

 protected:
  // ---- Protocol mutation hooks ----
  /// commit(p, outcome(p, action)).
  void doExecute(NodeId p, int action) override;
  /// Batched synchronous step, Jacobi-style: phase 1 computes every
  /// move's outcome against the untouched pre-step state, phase 2
  /// commits.  (DFTNO batches its own composition instead of delegating
  /// here.)
  bool doExecuteSimultaneous(std::span<const Move> moves) override;

 private:
  static constexpr int kIdle = -1;

  [[nodiscard]] NodeId target(NodeId p) const {
    return graph().neighborAt(p, s_[p]);
  }
  /// First port of p whose neighbor looks unvisited to a processor of
  /// color ownCol: differently colored AND idle (a pointer-holding
  /// neighbor is skipped so that corrective advances cannot re-select a
  /// stale target; in clean rounds unvisited neighbors are always idle).
  /// outcome passes the color p WILL have, without writing it first.
  [[nodiscard]] Port firstUnvisitedPort(NodeId p, int ownCol) const;
  /// Smallest port of a neighbor that points at p with a different color.
  [[nodiscard]] Port firstOfferingParentPort(NodeId p) const;
  [[nodiscard]] bool validParent(NodeId p) const;

  // SoA state columns {s, col, d, par}, s the least significant digit.
  StateArena arena_;
  NodeColumn s_;     // kIdle or port
  NodeColumn col_;   // 0/1
  NodeColumn d_;     // 0..N-1 (root pinned at 0)
  NodeColumn par_;   // port (root pinned at 0)
  std::vector<Outcome> batch_;  // reused phase-1 buffer
  // Whole-configuration evaluateGuards scratch: per-node token-offer
  // bytes (see the offers pass in evaluateGuards).  Mutable because the
  // evaluator is const; reused across calls, no steady-state allocation.
  mutable std::vector<std::uint8_t> offers_;
  // L_TC's walk and the live fingerprint, both built at the first check.
  std::unique_ptr<OrbitIndex> orbit_;
  std::unique_ptr<OrbitTracker> tracker_;
};

}  // namespace ssno

#endif  // SSNO_DFTC_DFTC_HPP
