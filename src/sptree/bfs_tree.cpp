#include "sptree/bfs_tree.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/assert.hpp"
#include "core/graph_algo.hpp"

namespace ssno {

BfsTree::BfsTree(Graph graph)
    : Protocol(std::move(graph)),
      arena_(this->graph(), DigitOrder::kLeastFirst),
      dist_(arena_.nodeColumn(
          {.lo = 1, .base = this->graph().nodeCount() - 1, .rootPin = 0})),
      par_(arena_.nodeColumn({.perDegree = 1, .rootPin = 0})) {
  SSNO_EXPECTS(this->graph().nodeCount() >= 2);
  SSNO_EXPECTS(this->graph().isConnected());
  addArena(arena_);
  // A deterministic (still possibly illegitimate) initial state; tests
  // that need adversarial states call randomize().
}

std::string BfsTree::actionName(int action) const {
  SSNO_EXPECTS(action == kFix);
  return "TreeFix";
}

int BfsTree::minNeighborDist(NodeId p) const {
  int best = graph().nodeCount();  // above any stored value
  for (NodeId q : graph().neighbors(p)) best = std::min(best, distOf(q));
  return best;
}

bool BfsTree::enabled(NodeId p, int action) const {
  if (action != kFix || p == graph().root()) return false;
  const int m = minNeighborDist(p);
  const int want = std::min(m + 1, graph().nodeCount() - 1);
  if (dist_[p] != want) return true;
  const NodeId parent =
      graph().neighborAt(p, par_[p]);
  return distOf(parent) != m;
}

void BfsTree::evaluateGuards(std::span<const NodeId> nodes,
                             std::uint64_t* masks) const {
  const NodeId root = graph().root();
  const int n = graph().nodeCount();
  const int* dist = dist_.data().data();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId p = nodes[i];
    if (p == root) {
      masks[i] = 0;
      continue;
    }
    int m = n;  // above any stored value
    for (const NodeId q : graph().neighbors(p))
      m = std::min(m, q == root ? 0 : dist[q]);
    const int want = std::min(m + 1, n - 1);
    bool fix = dist[p] != want;
    if (!fix) {
      const NodeId parent = graph().neighborAt(p, par_[p]);
      fix = (parent == root ? 0 : dist[parent]) != m;
    }
    masks[i] = fix ? std::uint64_t{1} : std::uint64_t{0};
  }
}

void BfsTree::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  commit(p, outcome(p));
}

BfsTree::Outcome BfsTree::outcome(NodeId p) const {
  // One walk: the minimum neighbour distance, capped at N as
  // minNeighborDist caps it, and the first port attaining it.
  const int n = graph().nodeCount();
  const auto nbrs = graph().neighbors(p);
  int m = n;
  Port first = kNoPort;
  for (std::size_t l = 0; l < nbrs.size(); ++l) {
    const int d = distOf(nbrs[l]);
    if (d < m || (d == m && first == kNoPort)) {
      m = d;
      first = static_cast<Port>(l);
    }
  }
  SSNO_ASSERT(first != kNoPort);
  return {.dist = std::min(m + 1, n - 1), .par = first};
}

bool BfsTree::doExecuteSimultaneous(std::span<const Move> moves) {
  expectEnabled(moves);
  batch_.clear();
  for (const Move& m : moves) batch_.push_back(outcome(m.node));
  for (std::size_t i = 0; i < moves.size(); ++i)
    commit(moves[i].node, batch_[i]);
  return true;
}

std::string BfsTree::dumpNode(NodeId p) const {
  if (p == graph().root()) return "root(dist=0)";
  std::ostringstream out;
  out << "dist=" << dist_[p] << " par="
      << graph().neighborAt(p, par_[p]);
  return out.str();
}

bool BfsTree::isLegitimate() {
  if (!fixes_)
    fixes_ = std::make_unique<GuardCounts>(
        *this, std::vector<std::uint64_t>{std::uint64_t{1} << kFix});
  return !fixes_->anyEnabled(0);
}

int BfsTree::currentHeight() const {
  std::vector<NodeId> parent(static_cast<std::size_t>(graph().nodeCount()));
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    parent[static_cast<std::size_t>(p)] = parentOf(p);
  return treeHeight(graph(), parent);
}

double BfsTree::stateBits(NodeId p) const {
  if (p == graph().root()) return 0.0;
  return std::log2(static_cast<double>(graph().nodeCount())) +
         std::log2(std::max(1.0, static_cast<double>(graph().degree(p))));
}

}  // namespace ssno
