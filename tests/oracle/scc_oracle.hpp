// Reference convergence analysis — the brute-force definition that
// mc::findFairCycle must agree with, kept in the tests as its oracle.
//
// SCCs come from the transitive closure (u and v share an SCC iff each
// reaches the other over in-region edges), enabled and acting pairs are
// std::sets, and the kNone / weak / strong conditions are the textbook
// ones.  O(n^3) and set-heavy: fine for the small random digraphs the
// tests feed it, and the reason production does not do it this way.
#ifndef SSNO_TESTS_ORACLE_SCC_ORACLE_HPP
#define SSNO_TESTS_ORACLE_SCC_ORACLE_HPP

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "core/checker.hpp"
#include "mc/properties.hpp"

namespace ssno::oracle {

/// violating[v]: state v lies in an SCC that hosts an infinite
/// execution the daemon model allows.
struct FairnessVerdict {
  std::vector<bool> violating;

  [[nodiscard]] bool converges() const {
    return std::none_of(violating.begin(), violating.end(),
                        [](bool b) { return b; });
  }
};

[[nodiscard]] inline FairnessVerdict bruteForceFairness(
    const mc::TransitionGraph& g, Fairness fairness) {
  const std::size_t n = g.stateCount();
  const auto edgesOf = [&g](std::size_t v) {
    return std::vector<mc::TransitionGraph::Edge>(
        g.edges.begin() + g.offsets[v], g.edges.begin() + g.offsets[v + 1]);
  };

  // reach[u][v]: v is reachable from u by one or more in-region edges.
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t u = 0; u < n; ++u)
    for (const auto& e : edgesOf(u))
      if (e.to != mc::TransitionGraph::kLeavesRegion) reach[u][e.to] = true;
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t u = 0; u < n; ++u)
      if (reach[u][k])
        for (std::size_t v = 0; v < n; ++v)
          if (reach[k][v]) reach[u][v] = true;
  const auto sameScc = [&](std::size_t u, std::size_t v) {
    return u == v || (reach[u][v] && reach[v][u]);
  };

  FairnessVerdict verdict;
  verdict.violating.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<std::size_t> scc;
    for (std::size_t u = 0; u < n; ++u)
      if (sameScc(u, v)) scc.push_back(u);
    bool cyclic = false;
    std::set<std::uint32_t> actsInside;
    std::set<std::uint32_t> enabledAny;
    std::set<std::uint32_t> enabledAll;
    bool first = true;
    for (const std::size_t u : scc) {
      std::set<std::uint32_t> enabled;
      for (const auto& e : edgesOf(u)) {
        enabled.insert(e.actorPair);
        if (e.to != mc::TransitionGraph::kLeavesRegion && sameScc(u, e.to)) {
          cyclic = true;
          actsInside.insert(e.actorPair);
        }
      }
      enabledAny.insert(enabled.begin(), enabled.end());
      if (first) {
        enabledAll = enabled;
        first = false;
      } else {
        std::set<std::uint32_t> both;
        std::set_intersection(enabledAll.begin(), enabledAll.end(),
                              enabled.begin(), enabled.end(),
                              std::inserter(both, both.begin()));
        enabledAll = std::move(both);
      }
    }
    if (!cyclic) continue;
    if (fairness == Fairness::kNone) {
      verdict.violating[v] = true;
      continue;
    }
    const std::set<std::uint32_t>& protectedPairs =
        fairness == Fairness::kStronglyFair ? enabledAny : enabledAll;
    verdict.violating[v] =
        std::includes(actsInside.begin(), actsInside.end(),
                      protectedPairs.begin(), protectedPairs.end());
  }
  return verdict;
}

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_SCC_ORACLE_HPP
