// Reference enabled set — the full guard scan an EnabledCache's
// incremental state must agree with, kept in the tests as its oracle.
//
// Protocol::enabledMoves() runs the scalar enabled() loop over every
// processor and action.  A refreshed view must list exactly those moves
// in the same node-major order, and every structure the cache keeps
// beside its action masks must agree with that list: both O(1) totals,
// the two-level node index (per-node membership and the ascending
// walk), and the Fenwick tree through the k-th move of every rank.  The
// round-robin daemon reads none of the Fenwick tree and the central
// daemon none of the walk, so a run alone does not pin them.
#ifndef SSNO_TESTS_ORACLE_VIEW_ORACLE_HPP
#define SSNO_TESTS_ORACLE_VIEW_ORACLE_HPP

#include <gtest/gtest.h>

#include <vector>

#include "core/enabled_view.hpp"
#include "core/protocol.hpp"

namespace ssno::oracle {

/// Fails the current test unless `view` is exactly `protocol`'s enabled
/// set as a full scan finds it now.
inline void expectViewMatchesScan(const EnabledView& view,
                                  const Protocol& protocol) {
  const std::vector<Move> scanned = protocol.enabledMoves();
  std::vector<Move> listed;
  view.appendMoves(listed);
  ASSERT_EQ(listed, scanned);
  ASSERT_EQ(view.moveCount(), static_cast<int>(scanned.size()));
  std::vector<NodeId> nodes;  // enabled processors, ascending
  for (const Move& m : scanned)
    if (nodes.empty() || nodes.back() != m.node) nodes.push_back(m.node);
  ASSERT_EQ(view.enabledNodeCount(), static_cast<int>(nodes.size()));
  std::vector<NodeId> visited;
  view.forEachNode([&visited](NodeId p) { visited.push_back(p); });
  ASSERT_EQ(visited, nodes);
  std::size_t next = 0;  // position of the next enabled node in `nodes`
  for (NodeId p = 0; p < protocol.graph().nodeCount(); ++p) {
    const bool listedHere = next < nodes.size() && nodes[next] == p;
    ASSERT_EQ(view.anyEnabled(p), listedHere) << "p=" << p;
    if (listedHere) ++next;
  }
  for (std::size_t k = 0; k < scanned.size(); ++k)
    ASSERT_EQ(view.kthMove(static_cast<int>(k)), scanned[k]) << "k=" << k;
}

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_VIEW_ORACLE_HPP
