// Reference exploration — the brute-force definition the model checker
// (mc::ParallelChecker) must agree with, kept in the tests as its oracle.
//
// Configurations are per-node code vectors held in a std::map.  Every
// expansion decodes the whole configuration (Protocol::
// decodeConfiguration), lists its moves with Protocol::enabledMoves, and
// builds each successor from a fresh full decode: one execute per central
// move, or the pre-step composition of oracle::bruteForceStep per
// simultaneous selection, then a whole Protocol::encodeConfiguration.
// Nothing here uses EnabledCache, StateCodec, StateStore,
// SimultaneousEngine or delta decoding, so the oracle shares none of the
// layers the explorer optimises.  Convergence is decided by
// mc::findFairCycle on the region graph built here; that analysis has
// its own oracle (scc_oracle.hpp).
//
// A check may violate several properties at once.  The reported one is
// the violation nearest a seed (fewest steps from one), closure before
// deadlock at equal distance, and convergence only when the region has
// neither — the explorer's convention, since it stops at the end of the
// first BFS level that holds a violation.
#ifndef SSNO_TESTS_ORACLE_EXPLORE_ORACLE_HPP
#define SSNO_TESTS_ORACLE_EXPLORE_ORACLE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checker.hpp"
#include "core/protocol.hpp"
#include "mc/explorer.hpp"
#include "mc/properties.hpp"
#include "oracle/step_oracle.hpp"

namespace ssno::oracle {

enum class Violation { kNone, kClosure, kDeadlock, kCycle, kUnknown };

struct ExploreVerdict {
  Violation violation = Violation::kNone;
  std::uint64_t states = 0;  ///< configurations reached from the seeds
  /// Enabled (processor, action) pairs, summed over those configurations.
  std::uint64_t transitions = 0;

  [[nodiscard]] bool ok() const { return violation == Violation::kNone; }
};

/// Every configuration of p's product space (at most 2^22), in
/// mixed-radix order.
[[nodiscard]] inline std::vector<std::vector<std::uint64_t>>
allConfigurations(const Protocol& p) {
  const auto n = static_cast<std::size_t>(p.graph().nodeCount());
  std::uint64_t total = 1;
  for (NodeId q = 0; q < p.graph().nodeCount(); ++q) {
    total *= p.localStateCount(q);
    if (total > (std::uint64_t{1} << 22))
      throw std::invalid_argument("allConfigurations: space too large");
  }
  std::vector<std::vector<std::uint64_t>> out;
  std::vector<std::uint64_t> codes(n, 0);
  while (true) {
    out.push_back(codes);
    std::size_t q = 0;
    while (q < n && ++codes[q] == p.localStateCount(static_cast<NodeId>(q)))
      codes[q++] = 0;
    if (q == n) return out;
  }
}

/// Explores every configuration reachable from `seeds` and decides the
/// check: closure, no illegitimate deadlock, and convergence under
/// `fairness` (central moves, or simultaneous selections when
/// `synchronous`; only Fairness::kNone combines with those).
[[nodiscard]] inline ExploreVerdict bruteForceExplore(
    Protocol& p, const std::function<bool(Protocol&)>& legit,
    const std::vector<std::vector<std::uint64_t>>& seeds, Fairness fairness,
    bool synchronous) {
  using Config = std::vector<std::uint64_t>;
  // A simultaneous selection has no single actor pair; kNone reads none.
  constexpr std::uint32_t kNoPair = ~std::uint32_t{0};
  if (synchronous && fairness != Fairness::kNone)
    throw std::invalid_argument("synchronous steps are checked unfairly");
  std::map<Config, std::size_t> index;  // configuration -> BFS position
  std::vector<Config> configs;
  std::vector<int> depth;
  std::vector<bool> isLegit;
  const auto reach = [&](const Config& c, int d) {
    const auto [it, inserted] = index.try_emplace(c, configs.size());
    if (inserted) {
      configs.push_back(c);
      depth.push_back(d);
      p.decodeConfiguration(c);
      isLegit.push_back(legit(p));
    }
    return it->second;
  };
  for (const Config& s : seeds) (void)reach(s, 0);

  ExploreVerdict v;
  // (child, actor pair) per configuration.
  std::vector<std::vector<std::pair<std::size_t, std::uint32_t>>> out;
  // (distance, kind) of the nearest closure or deadlock violation.
  std::optional<std::pair<int, Violation>> nearest;
  const auto note = [&](int d, Violation kind) {
    if (!nearest || std::make_pair(d, kind) < *nearest) nearest = {d, kind};
  };
  const auto actions = static_cast<std::uint32_t>(p.actionCount());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config c = configs[i];  // reach() may reallocate configs
    p.decodeConfiguration(c);
    const std::vector<Move> moves = p.enabledMoves();
    v.transitions += moves.size();
    std::vector<std::pair<Config, std::uint32_t>> successors;
    if (!synchronous) {
      for (const Move& m : moves) {
        p.decodeConfiguration(c);
        p.execute(m.node, m.action);
        successors.emplace_back(
            p.encodeConfiguration(),
            static_cast<std::uint32_t>(m.node) * actions +
                static_cast<std::uint32_t>(m.action));
      }
    } else if (!moves.empty()) {
      // One enabled action per enabled processor: the cartesian product
      // of the per-processor choices (moves are node-major).
      std::vector<std::vector<Move>> choices;
      for (const Move& m : moves) {
        if (choices.empty() || choices.back().front().node != m.node)
          choices.emplace_back();
        choices.back().push_back(m);
      }
      std::vector<std::size_t> pick(choices.size(), 0);
      while (true) {
        std::vector<Move> selection;
        for (std::size_t k = 0; k < choices.size(); ++k)
          selection.push_back(choices[k][pick[k]]);
        p.decodeConfiguration(c);
        (void)bruteForceStep(p, selection);
        successors.emplace_back(p.encodeConfiguration(), kNoPair);
        std::size_t k = 0;
        while (k < pick.size() && ++pick[k] == choices[k].size())
          pick[k++] = 0;
        if (k == pick.size()) break;
      }
    }
    out.emplace_back();
    for (auto& [child, pair] : successors) {
      const std::size_t j = reach(child, depth[i] + 1);
      if (isLegit[i] && !isLegit[j]) note(depth[i], Violation::kClosure);
      out[i].emplace_back(j, pair);
    }
    if (moves.empty() && !isLegit[i]) note(depth[i], Violation::kDeadlock);
  }
  v.states = configs.size();
  if (nearest) {
    v.violation = nearest->second;
    return v;
  }
  // The illegitimate region in BFS order, each edge into a legitimate
  // configuration marked as leaving it.
  std::vector<std::uint32_t> local(configs.size(),
                                   mc::TransitionGraph::kLeavesRegion);
  std::uint32_t regionSize = 0;
  for (std::size_t i = 0; i < configs.size(); ++i)
    if (!isLegit[i]) local[i] = regionSize++;
  mc::TransitionGraph g;
  g.pairCount = static_cast<std::size_t>(p.graph().nodeCount()) * actions;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (isLegit[i]) continue;
    for (const auto& [j, pair] : out[i]) g.edges.push_back({local[j], pair});
    g.endState();
  }
  if (mc::findFairCycle(g, fairness) >= 0) v.violation = Violation::kCycle;
  return v;
}

/// The violation a checker failure text reports.
[[nodiscard]] inline Violation violationOf(const std::string& failure) {
  if (failure.empty()) return Violation::kNone;
  if (failure.starts_with("closure violated")) return Violation::kClosure;
  if (failure.starts_with("illegitimate terminal")) return Violation::kDeadlock;
  if (failure.starts_with("convergence violated")) return Violation::kCycle;
  return Violation::kUnknown;
}

/// "" when the explorer's result agrees with the oracle's verdict: the
/// same violation (or none), and on a pass the same states explored and
/// transitions.  Otherwise what differs.
[[nodiscard]] inline std::string disagreement(const mc::Result& r,
                                              const ExploreVerdict& truth) {
  std::ostringstream out;
  if (violationOf(r.failure) != truth.violation || r.ok != truth.ok())
    out << "oracle violation " << static_cast<int>(truth.violation)
        << ", explorer failure '" << r.failure << "'";
  else if (r.ok && (r.statesExplored != truth.states ||
                    r.transitions != truth.transitions))
    out << "oracle " << truth.states << " states / " << truth.transitions
        << " transitions, explorer " << r.statesExplored << " / "
        << r.transitions;
  return out.str();
}

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_EXPLORE_ORACLE_HPP
