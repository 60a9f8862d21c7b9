#include "orientation/baseline.hpp"

#include <sstream>

#include "core/assert.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno {

InitBasedOrientation::InitBasedOrientation(Graph graph)
    : Protocol(std::move(graph)),
      arena_(this->graph(), DigitOrder::kMostFirst),
      done_(arena_.nodeColumn({.base = 2})),
      numbered_(arena_.nodeColumn({.base = 2})),
      eta_(arena_.nodeColumn({.base = modulus()})),
      pi_(arena_.portColumn({.base = modulus()})) {
  addArena(arena_);
  preorder_ = portOrderDfsPreorder(this->graph());
  const std::size_t n = static_cast<std::size_t>(this->graph().nodeCount());
  successor_.assign(n, kNoNode);
  std::vector<NodeId> byIndex(n, kNoNode);
  for (NodeId p = 0; p < this->graph().nodeCount(); ++p)
    byIndex[static_cast<std::size_t>(preorder_[idx(p)])] = p;
  for (NodeId p = 0; p < this->graph().nodeCount(); ++p) {
    const std::size_t next = static_cast<std::size_t>(preorder_[idx(p)]) + 1;
    if (next < n) successor_[idx(p)] = byIndex[next];
  }
}

std::string InitBasedOrientation::actionName(int action) const {
  return action == kNumber ? "Number" : "Label";
}

bool InitBasedOrientation::enabled(NodeId p, int action) const {
  // The initialization wave: processors number themselves in DFS
  // preorder (the wave order is fixed by the topology), then label once
  // all neighbors are numbered.  A `done` processor NEVER acts again —
  // that is the whole point of this baseline.
  if (done_[p]) return false;
  if (action == kNumber) {
    if (numbered_[p]) return false;
    if (p == graph().root()) return true;
    // Wave: my preorder predecessor is already numbered.
    for (NodeId q = 0; q < graph().nodeCount(); ++q)
      if (preorder_[static_cast<std::size_t>(q)] ==
          preorder_[static_cast<std::size_t>(p)] - 1)
        return numbered_[q] != 0;
    return false;
  }
  if (!numbered_[p]) return false;
  for (NodeId q : graph().neighbors(p))
    if (!numbered_[q]) return false;
  return true;
}

void InitBasedOrientation::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  if (action == kNumber) {
    eta_[p] = preorder_[static_cast<std::size_t>(p)];
    numbered_[p] = 1;
    return;
  }
  for (Port l = 0; l < graph().degree(p); ++l) {
    const NodeId q = graph().neighborAt(p, l);
    pi_.at(p, l) =
        chordalDistance(eta_[p], eta_[q], modulus());
  }
  done_[p] = 1;
}

std::string InitBasedOrientation::dumpNode(NodeId p) const {
  std::ostringstream out;
  out << "done=" << done_[p] << " num=" << numbered_[p]
      << " eta=" << eta_[p];
  return out.str();
}

Orientation InitBasedOrientation::orientation() const {
  Orientation o;
  o.graph = &graph();
  o.modulus = modulus();
  o.name = eta_.data();
  o.label = pi_.data();
  return o;
}

void InitBasedOrientation::initializeAll() {
  done_.fill(0);
  numbered_.fill(0);
  eta_.fill(0);
  pi_.fill(0);
  noteWriteAll();
}

void InitBasedOrientation::dirtyAfterWrite(NodeId p, int action) {
  (void)action;
  dirtyNeighborhood(p);
  if (successor_[idx(p)] != kNoNode) dirtyNode(successor_[idx(p)]);
}

bool InitBasedOrientation::isCorrect() const {
  for (int d : done_.data())
    if (!d) return false;
  return satisfiesSpec(orientation());
}

}  // namespace ssno
