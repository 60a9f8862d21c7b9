#include "apps/broadcast.hpp"

#include <set>

#include "core/assert.hpp"
#include "core/bitwords.hpp"
#include "apps/routing.hpp"

namespace ssno {

TraversalResult traverseWithOrientation(const Orientation& o, NodeId source) {
  const Graph& g = *o.graph;
  TraversalResult res;
  std::set<int> visitedNames{o.nameOf(source)};
  res.visitOrder.push_back(source);

  // Explicit DFS; the token only crosses an edge when the far side's
  // *name* (derived from the edge label) is known to be unvisited, so it
  // walks exactly the DFS tree: 2(n−1) messages.
  std::vector<NodeId> stack{source};
  while (!stack.empty()) {
    const NodeId p = stack.back();
    Port nextPort = kNoPort;
    for (Port l = 0; l < g.degree(p); ++l) {
      if (!visitedNames.contains(neighborNameViaLabel(o, p, l))) {
        nextPort = l;
        break;
      }
    }
    if (nextPort == kNoPort) {
      stack.pop_back();
      if (!stack.empty()) ++res.messages;  // token returns to parent
      continue;
    }
    const NodeId q = g.neighborAt(p, nextPort);
    ++res.messages;  // token moves to a fresh processor
    visitedNames.insert(o.nameOf(q));
    res.visitOrder.push_back(q);
    stack.push_back(q);
  }
  return res;
}

TraversalResult traverseWithoutOrientation(const Graph& g, NodeId source) {
  // Classic depth-first token traversal in an unoriented network (cf.
  // Tel, "Introduction to Distributed Algorithms"): neighbors cannot be
  // recognized, so the token is sent over every incident edge; already-
  // visited receivers bounce it back and both sides mark the port as
  // used.  Every edge is crossed exactly twice: 2m messages.
  TraversalResult res;
  std::vector<bool> visited(static_cast<std::size_t>(g.nodeCount()), false);
  // Used ports as one flat bitset over the CSR port slots (SoA): no
  // per-node allocations, and the "first unused port" scan is word-level.
  bits::WordBitset usedPort(g.portSlotCount());

  auto markEdge = [&g, &usedPort](NodeId a, Port fromA) {
    usedPort.set(g.portBase(a) + static_cast<std::size_t>(fromA));
    const NodeId b = g.neighborAt(a, fromA);
    const Port back = g.backPort(a, fromA);
    usedPort.set(g.portBase(b) + static_cast<std::size_t>(back));
  };

  visited[static_cast<std::size_t>(source)] = true;
  res.visitOrder.push_back(source);
  std::vector<NodeId> stack{source};
  while (!stack.empty()) {
    const NodeId p = stack.back();
    Port nextPort = kNoPort;
    for (Port l = 0; l < g.degree(p); ++l) {
      if (!usedPort.test(g.portBase(p) + static_cast<std::size_t>(l))) {
        nextPort = l;
        break;
      }
    }
    if (nextPort == kNoPort) {
      // All incident edges used: hand the token back to the parent.
      stack.pop_back();
      if (!stack.empty()) ++res.messages;
      continue;
    }
    const NodeId q = g.neighborAt(p, nextPort);
    markEdge(p, nextPort);
    ++res.messages;  // token offered over the edge
    if (visited[static_cast<std::size_t>(q)]) {
      ++res.messages;  // bounced straight back
      continue;
    }
    visited[static_cast<std::size_t>(q)] = true;
    res.visitOrder.push_back(q);
    stack.push_back(q);
  }
  return res;
}

}  // namespace ssno
