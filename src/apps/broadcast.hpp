// Broadcast / traversal with and without a sense of direction
// (paper §1.4: Santoro [21] showed an orientation decreases message
// complexity; Chapter 5: SoD lets processors refer to others by locally
// unique names).
//
// With a chordal orientation a traversal token can carry the set of
// *names* already visited; a processor can tell which neighbors are new
// by deriving their names from its edge labels, so the token walks a DFS
// tree using exactly 2(n−1) messages.  Without an orientation the
// traversal must probe every incident edge: 2m messages (m = |E|).
// The gap 2m vs 2(n−1) is the quantitative version of the paper's
// motivation, reproduced by the routing preset.
#ifndef SSNO_APPS_BROADCAST_HPP
#define SSNO_APPS_BROADCAST_HPP

#include <vector>

#include "core/graph.hpp"
#include "orientation/chordal.hpp"

namespace ssno {

struct TraversalResult {
  int messages = 0;
  std::vector<NodeId> visitOrder;  ///< first-visit order, starts at source
  [[nodiscard]] bool coveredAll(const Graph& g) const {
    return static_cast<int>(visitOrder.size()) == g.nodeCount();
  }
};

/// Token traversal exploiting the orientation: the token carries visited
/// *names*; each processor forwards it to its first (port-order) neighbor
/// whose derived name is unvisited, else returns it to the sender.
/// Message count: one per token transfer — exactly 2(n−1).
[[nodiscard]] TraversalResult traverseWithOrientation(const Orientation& o,
                                                      NodeId source);

/// Baseline token traversal without orientation: neighbors cannot be
/// recognized, so the token must be offered over every incident edge and
/// bounced back from already-visited processors: 2m messages.
[[nodiscard]] TraversalResult traverseWithoutOrientation(const Graph& g,
                                                         NodeId source);

}  // namespace ssno

#endif  // SSNO_APPS_BROADCAST_HPP
