// Mechanical verification of self-stabilization (Definitions 2.1.1/2.1.2):
// the property theory the model checker decides.
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
// mc::ParallelChecker (mc/explorer) verifies exactly these conditions,
// over the full product space (∏_p localStateCount(p)) or over the
// configurations reachable from a seed set; with Options::threads = 1 it
// is the sequential checker.  Condition (2)/(2') is decided by
// mc::findFairCycle (mc/properties) on the out-edges the explorer logs
// while it expands the illegitimate region.
#ifndef SSNO_CORE_CHECKER_HPP
#define SSNO_CORE_CHECKER_HPP

namespace ssno {

/// Which daemons the protocol must converge under.
enum class Fairness {
  kNone,          ///< any daemon: the illegitimate region must be acyclic
  kWeaklyFair,    ///< no illegitimate cycle along which some action is
                  ///< enabled at EVERY configuration yet never executes
  kStronglyFair,  ///< no illegitimate cycle along which some action is
                  ///< enabled at SOME configuration yet never executes
};

}  // namespace ssno

#endif  // SSNO_CORE_CHECKER_HPP
