// Mechanical verification of self-stabilization (Definitions 2.1.1/2.1.2).
//
// For a protocol P with legitimacy predicate L on configuration set C,
// self-stabilization =
//   * closure:     every successor of a configuration satisfying L
//                  satisfies L, and
//   * convergence: every maximal computation from *any* configuration
//                  reaches a configuration satisfying L.
//
// Under the central daemon the transition relation is "execute one enabled
// move"; convergence for *all* central-daemon computations holds iff
//   (1) no illegitimate configuration is terminal, and
//   (2) the sub-digraph induced by illegitimate configurations is acyclic
// (a maximal path confined to finitely many illegitimate configurations
// would have to repeat one).
//
// Protocols that assume a *fair* daemon (the paper's DFTNO / token-
// circulation substrate) are only required to converge on fair
// executions.  Fairness is tracked at the granularity of (processor,
// action) pairs: weak fairness demands that an action enabled at every
// configuration from some point on eventually executes; strong fairness
// demands the same for an action enabled infinitely often.  (Processor-
// level fairness is too weak here: a processor can discharge it with
// token moves while its edge-label correction starves.)  Condition (2)
// is replaced by
//   (2') no illegitimate cycle is fair-feasible,
// checked SCC-wise (Emerson–Lei style): an infinite execution eventually
// stays inside one SCC of the illegitimate region, and a fair infinite
// execution inside an SCC exists iff no protected pair — enabled at
// every SCC configuration (weak) or at some (strong) — fails to act on
// an internal transition (a closed walk covering all of the SCC then
// witnesses feasibility).
//
// Condition (2)/(2') is decided by mc::findFairCycle (mc/properties),
// the analysis the parallel explorer uses too: both verify* paths log the
// out-edges of every illegitimate configuration while they expand it —
// one edge per enabled (processor, action) pair, edges into legitimate
// configurations marked — and run it on that log, so no configuration is
// expanded twice.  (An acyclic region has no SCC with an internal edge,
// so kNone needs no separate depth-first search.)
//
// ModelChecker verifies exactly these conditions:
//   * verifyFullSpace  — enumerates the complete product state space
//                        (∏_p localStateCount(p)); the strongest check,
//                        feasible for tiny graphs/domains;
//   * verifyReachable  — explores only configurations reachable from a
//                        given seed set (used e.g. to verify the overlay
//                        layer from every overlay state × legitimate
//                        substrate states);
//   * monteCarlo       — randomized convergence stress for sizes beyond
//                        exhaustive reach, under any daemon.
//
// Successor expansion is incremental: configurations are delta-decoded
// (only the nodes that differ from the previously decoded configuration
// are rewritten, see Protocol::decodeConfigurationDelta), and the
// enabled-move set is maintained by an EnabledCache over the protocol's
// dirty notifications instead of a full guard rescan per configuration.
// In Debug builds the cache cross-checks the incremental enabled set
// against the naive scan on every refresh, so exploration itself
// exercises the dirtying contract.  setNaiveExpansion(true) restores
// the pre-incremental behavior (full decode + full rescan per
// expansion) for before/after benchmarking.  The parallel engine in
// src/mc scales these same checks across threads; equivalence of the
// two paths is pinned by tests/mc_equiv_test.cpp.
#ifndef SSNO_CORE_CHECKER_HPP
#define SSNO_CORE_CHECKER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/protocol.hpp"
#include "core/rng.hpp"

namespace ssno {

struct CheckResult {
  bool ok = false;
  std::string failure;               ///< empty when ok
  std::uint64_t configsExplored = 0;

  explicit operator bool() const { return ok; }
};

/// Which daemons the protocol must converge under.
enum class Fairness {
  kNone,          ///< any daemon: the illegitimate region must be acyclic
  kWeaklyFair,    ///< no illegitimate cycle along which some action is
                  ///< enabled at EVERY configuration yet never executes
  kStronglyFair,  ///< no illegitimate cycle along which some action is
                  ///< enabled at SOME configuration yet never executes
};

class ModelChecker {
 public:
  using LegitPredicate = std::function<bool()>;

  /// `legit` is evaluated against the protocol's *current* configuration;
  /// the checker decodes configurations into the protocol before calling.
  ModelChecker(Protocol& protocol, LegitPredicate legit)
      : protocol_(protocol), legit_(std::move(legit)) {}

  /// Exhaustive check over the full product space.  Fails fast (without
  /// exploring) if the space exceeds `maxConfigs` or the transition log's
  /// 32-bit configuration indices.
  [[nodiscard]] CheckResult verifyFullSpace(
      std::uint64_t maxConfigs, Fairness fairness = Fairness::kNone);

  /// Check over all configurations reachable from `seeds`.
  [[nodiscard]] CheckResult verifyReachable(
      const std::vector<std::vector<std::uint64_t>>& seeds,
      std::uint64_t maxConfigs, Fairness fairness = Fairness::kNone);

  /// Randomized: scrambles the configuration `trials` times, runs under
  /// `daemon` for at most `maxMoves` moves per trial, and requires the
  /// legitimacy predicate to hold at some point of every trial; after it
  /// first holds, additionally requires it to keep holding for
  /// `closureMoves` further moves (closure spot check).
  [[nodiscard]] CheckResult monteCarlo(Daemon& daemon, Rng& rng, int trials,
                                       StepCount maxMoves,
                                       StepCount closureMoves);

  /// Forces full configuration decodes and naive enabled-set rescans
  /// per expansion (the pre-incremental behavior) — the "before" side
  /// of the model-check throughput benchmark.
  void setNaiveExpansion(bool naive) { naive_ = naive; }

  /// Verifies under SYNCHRONOUS-daemon semantics instead of the central
  /// interleaving: a transition executes one simultaneous move set —
  /// every enabled processor acts, each choosing one of its enabled
  /// actions (successors = the cartesian product of per-node choices).
  /// Move sets are executed in place by the columnar simultaneous-step
  /// engine (core/sync_engine) — batched StateArena snapshot/restore of
  /// the acting set with a single deferred dirty pass — instead of
  /// per-node (node, mask) snapshot loops.  Under the synchronous
  /// daemon every enabled processor acts each step, so the fairness-
  /// aware modes are meaningless here: only Fairness::kNone is
  /// accepted (the illegitimate region must be acyclic).
  void setSynchronousSteps(bool sync) { sync_ = sync; }

 private:
  Protocol& protocol_;
  LegitPredicate legit_;
  bool naive_ = false;
  bool sync_ = false;
};

}  // namespace ssno

#endif  // SSNO_CORE_CHECKER_HPP
