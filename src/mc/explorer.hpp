// ParallelChecker — the model checker: explicit-state verification of
// self-stabilization, parallel across threads (Options::threads = 1 is
// the sequential checker).  The property theory is documented in
// core/checker.hpp.
//
// Architecture: two paths over shared workers, one per kind of check.
//   * StateCodec packs configurations into fixed-width keys; a
//     successor is named by patching the acted node's field (O(1)).
//   * Each worker owns a Protocol instance and an EnabledCache, built on
//     the worker's own thread; switching the worker to the next state
//     delta-decodes only the differing nodes, so the protocol's dirty
//     set — and therefore guard re-evaluation — stays proportional to
//     the diff, not to n.  A stale cache would change the transition
//     counts that tests/mc_equiv_test.cpp compares with the brute-force
//     explorer, which scans every state's guards.  Both paths share the
//     successor enumeration (execute / encode / restore, or the
//     columnar engine's execute / undo under synchronous steps), the
//     violation selection, the report and the convergence pass.
//   * checkFullSpace names every configuration by its mixed-radix index
//     and never hashes one.  Each worker takes one contiguous range of
//     whole bitset words.  Pass 1 evaluates legitimacy into a bitset
//     with a per-word popcount rank directory, which maps an
//     illegitimate index to its dense local id in O(1).  Pass 2 expands
//     the range in index order: a successor's index is the parent's plus
//     (new − old digit) × the acting node's radix weight, once per
//     actor; closure is answered from the bitset; an illegitimate
//     state's out-edges go to the worker's per-range log in local ids.
//     The two passes are timed as the check's one level (mc_level_ns);
//     every state is a depth-0 seed, so peakFrontier is the space size.
//   * checkReachable runs a level-synchronous parallel BFS.  StateStore
//     is the sharded concurrent seen-set; per-state depth, legitimacy and
//     canonical parent pointers live beside the keys.  Workers claim
//     frontier chunks from a shared cursor (dynamic load balancing); a
//     level barrier separates depths.  The next-level frontier is a
//     FrontierSpill: bounded RAM plus run files on disk, so frontiers
//     beyond Options::spillCapacity degrade to streaming instead of
//     aborting.
//
// Determinism: verdicts, counterexample traces, statesExplored and
// peakFrontier are bit-identical for 1 and N threads.  Exploration
// never stops mid-level on a violation; candidates are collected and
// the canonical minimum — ordered by (kind, state key, move), never by
// discovery order or state id — is reported at the level barrier.  A
// full-space key is one 64-bit word (fitsLog(total) bounds the field
// bits by 2·log₂ total < 64) with node 0 in the lowest bits, so index
// order is key order there.  Reachable counterexample traces follow
// the store's canonical-min parent pointers; a full-space trace is the
// violating configuration (plus the offending move of a closure
// violation).  Wall-clock fields (seconds, statesPerSec) are of course
// not deterministic.
//
// Properties checked (core/checker.hpp):
//   * closure    — a legitimate configuration with an illegitimate
//                  successor fails;
//   * no deadlock — an illegitimate terminal configuration fails;
//   * convergence — while a worker expands an illegitimate state it
//                  logs the state's out-edges (child id, or a
//                  leaves-the-region mark, plus the actor pair) and one
//                  end offset.  After exploration the per-worker logs are
//                  concatenated into the CSR form of mc/properties and
//                  analyzed there: acyclicity for Fairness::kNone, no
//                  fair-feasible SCC cycle otherwise.  The region is never
//                  expanded a second time.  Full-space logs are born in
//                  local ids, which are ranks in key order, so the state
//                  found is already the canonical one.  Reachable logs hold
//                  store ids, remapped in place to dense local ids; a
//                  passing check never sorts, and only on a violation is
//                  the same log relabeled in canonical (key) order and
//                  analyzed again, so the reported state is thread-count
//                  independent.  Ids and edge offsets are 32-bit in the
//                  log; a check that outgrows them fails with
//                  mc::kLogWidthExceeded before any truncated value is
//                  read (a full-space check whose product space cannot
//                  fit fails before it allocates anything).
#ifndef SSNO_MC_EXPLORER_HPP
#define SSNO_MC_EXPLORER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/protocol.hpp"

namespace ssno::mc {

struct Options {
  /// Worker threads; 0 (or less) = the usable cores (usableCores(),
  /// core/parallel.hpp).
  /// A thread that cannot be started fails the check with an exception
  /// once the started workers have joined (core/parallel.hpp).
  int threads = 1;
  /// Cap on stored states; any value up to 2^64 - 1 is safe (the store's
  /// sizing saturates).
  std::uint64_t maxStates = std::uint64_t{1} << 22;
  Fairness fairness = Fairness::kNone;
  /// Verify under SYNCHRONOUS-daemon semantics: a transition executes
  /// one simultaneous move set (every enabled processor acts, one
  /// enabled action each; successors = the cartesian product of
  /// per-node choices), run in place by the columnar simultaneous-step
  /// engine (core/sync_engine).  Every enabled processor acts each
  /// step, so the fairness-aware modes are meaningless here — only
  /// Fairness::kNone combines with this flag.
  bool synchronousSteps = false;
  /// Frontier ids kept in RAM before spilling a run file; 0 = unbounded
  /// (no disk tier).  Only reachable checks keep a frontier.
  std::uint64_t spillCapacity = 0;
  std::string spillDir;  ///< "" = std::filesystem::temp_directory_path()
};

struct Result {
  bool ok = false;
  std::string failure;  ///< empty when ok
  std::uint64_t statesExplored = 0;
  /// Enabled (processor, action) pairs, summed over the expanded states
  /// (view.moveCount() per state).  Under central steps that is the
  /// successor count.  Under synchronousSteps it is NOT the number of
  /// simultaneous successors (one per selection): it counts the same
  /// pairs, so over the same states it equals the central count.
  std::uint64_t transitions = 0;
  std::uint64_t peakFrontier = 0;
  std::uint64_t spillRuns = 0;  ///< run files written by the disk tier
  int depthReached = 0;
  double seconds = 0;       ///< wall clock (not deterministic)
  double statesPerSec = 0;  ///< statesExplored / seconds
  /// Counterexample: configuration dumps from a seed to the violating
  /// configuration along canonical parent pointers (empty when ok).
  std::vector<std::string> trace;

  explicit operator bool() const { return ok; }
};

class ParallelChecker {
 public:
  /// Builds one Protocol instance per worker (instances must share
  /// nothing mutable; each gets its own Graph copy via construction).
  /// Called once more for a probe instance, and then on each worker's
  /// own thread, so calls may run concurrently.
  using Factory = std::function<std::unique_ptr<Protocol>()>;
  /// Legitimacy predicate evaluated against a worker's instance.
  using Legit = std::function<bool(Protocol&)>;

  ParallelChecker(Factory factory, Legit legit)
      : factory_(std::move(factory)), legit_(std::move(legit)) {}

  /// Exhaustive check over the full product space, every configuration
  /// named by its mixed-radix index (no store, no frontier).  Fails
  /// fast, before allocating anything, when ∏ localStateCount exceeds
  /// maxStates, 64-bit indexing or the transition log's 32-bit ids
  /// (mc::kLogWidthExceeded).
  [[nodiscard]] Result checkFullSpace(const Options& opt);

  /// Check over all configurations reachable from `seeds` (per-node
  /// canonical code vectors, as Protocol::encodeConfiguration).
  [[nodiscard]] Result checkReachable(
      const std::vector<std::vector<std::uint64_t>>& seeds,
      const Options& opt);

 private:
  Factory factory_;
  Legit legit_;
};

}  // namespace ssno::mc

#endif  // SSNO_MC_EXPLORER_HPP
