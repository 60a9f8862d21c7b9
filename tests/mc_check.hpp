// Test helpers for exhaustive checks of one protocol type: the model
// checker over fresh instances, and its options in one call.
#ifndef SSNO_TESTS_MC_CHECK_HPP
#define SSNO_TESTS_MC_CHECK_HPP

#include <cstdint>
#include <memory>

#include "core/checker.hpp"
#include "mc/explorer.hpp"

namespace ssno {

/// The model checker over fresh P(args...) instances, with
/// P::isLegitimate() as the legitimacy predicate.
template <class P, class... Args>
[[nodiscard]] mc::ParallelChecker checkerFor(Args... args) {
  return mc::ParallelChecker(
      [args...] { return std::make_unique<P>(args...); },
      [](Protocol& p) { return static_cast<P&>(p).isLegitimate(); });
}

/// At most `maxStates` states, under `fairness`, on `threads` workers.
[[nodiscard]] inline mc::Options checkOptions(std::uint64_t maxStates,
                                              Fairness fairness,
                                              int threads = 1) {
  mc::Options opt;
  opt.threads = threads;
  opt.maxStates = maxStates;
  opt.fairness = fairness;
  return opt;
}

}  // namespace ssno

#endif  // SSNO_TESTS_MC_CHECK_HPP
