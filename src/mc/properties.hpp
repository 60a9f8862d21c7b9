// Convergence-property analysis on the illegitimate region, stored as a
// CSR transition graph.
//
// The explorer (mc/explorer) logs the region while it expands it and
// hands this form to findFairCycle:
//   * states are dense local ids 0..stateCount()-1, one per
//     illegitimate state;
//   * state v's out-edges are edges[offsets[v], offsets[v+1]), one per
//     enabled (processor, action) pair — one per simultaneous selection
//     under synchronous steps — in the producer's enumeration order;
//   * an edge into a legitimate configuration leaves the region: its
//     `to` is kLeavesRegion.  It is kept because a state's enabled-pair
//     mask is the union of its edges' actor pairs; there is no separate
//     mask arena.
//
// Convergence holds iff the illegitimate region admits no infinite
// execution the daemon model allows:
//
//   * Fairness::kNone — ANY cycle is a violation (an unfair daemon may
//     follow it forever), i.e. the region must be acyclic;
//   * kWeaklyFair / kStronglyFair — only *fair-feasible* cycles count,
//     checked SCC-wise (Emerson–Lei style): an infinite execution
//     eventually stays inside one SCC, and a fair infinite execution
//     inside an SCC exists iff no protected (processor, action) pair —
//     enabled at every SCC configuration (weak) or at some (strong) —
//     fails to act on an internal transition.
//
// findFairCycle returns the local id of a state inside a violating SCC,
// or -1 when convergence holds.  Whether a violating SCC exists does not
// depend on how the states are numbered; which state is returned does.
// Given the same graph the result is fully deterministic, so a caller
// that numbers the states canonically gets a reproducible
// counterexample: the explorer's full-space logs are born in key order,
// and it relabels a reachable log by key (TransitionGraph::permuted).
#ifndef SSNO_MC_PROPERTIES_HPP
#define SSNO_MC_PROPERTIES_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/protocol.hpp"

namespace ssno::mc {

/// Renders the protocol's current configuration, one "  node q: ..."
/// line per processor — the format of the explorer's failure texts and
/// counterexample traces.
[[nodiscard]] std::string describeConfiguration(const Protocol& p);

struct TransitionGraph {
  /// `to` of an edge into a legitimate configuration.  Also the bound of
  /// the 32-bit fields: local ids, store ids written to a log, and edge
  /// offsets must all stay below it.
  static constexpr std::uint32_t kLeavesRegion = 0xFFFFFFFFu;

  struct Edge {
    std::uint32_t to;         ///< local id, or kLeavesRegion
    std::uint32_t actorPair;  ///< node * actionCount + action
  };

  std::vector<std::uint32_t> offsets{0};  ///< stateCount() + 1 entries
  std::vector<Edge> edges;
  /// Width of the actor-pair masks (nodes · actions); read only by the
  /// fair modes.
  std::size_t pairCount = 0;

  [[nodiscard]] std::size_t stateCount() const { return offsets.size() - 1; }

  /// Closes the state whose edges were appended since the last call.
  void endState() {
    offsets.push_back(static_cast<std::uint32_t>(edges.size()));
  }

  /// The same graph with new state i = old state order[i]; each state's
  /// edges keep their order.  `order` must be a permutation.
  [[nodiscard]] TransitionGraph permuted(
      std::span<const std::uint32_t> order) const;
};

/// Failure text of a check whose state ids or edge count do not fit the
/// transition log's 32-bit fields.
inline constexpr const char* kLogWidthExceeded =
    "state space too large for the 32-bit transition log";

/// True iff `n` ids, offsets or edges fit the transition log's fields.
[[nodiscard]] constexpr bool fitsLog(std::uint64_t n) {
  return n < TransitionGraph::kLeavesRegion;
}

[[nodiscard]] std::int64_t findFairCycle(const TransitionGraph& g,
                                         Fairness fairness);

}  // namespace ssno::mc

#endif  // SSNO_MC_PROPERTIES_HPP
