#include "sptree/bfs_tree.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/assert.hpp"
#include "core/graph_algo.hpp"

namespace ssno {

BfsTree::BfsTree(Graph graph)
    : Protocol(std::move(graph)),
      arena_(this->graph()),
      dist_(arena_.nodeColumn(1)),
      par_(arena_.nodeColumn(0)) {
  SSNO_EXPECTS(this->graph().nodeCount() >= 2);
  SSNO_EXPECTS(this->graph().isConnected());
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

Port BfsTree::firstMinPort(NodeId p) const {
  const int m = minNeighborDist(p);
  for (Port l = 0; l < graph().degree(p); ++l)
    if (distOf(graph().neighborAt(p, l)) == m) return l;
  SSNO_ASSERT(false);
  return kNoPort;
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
  const int m = minNeighborDist(p);
  dist_[p] =
      std::min(m + 1, graph().nodeCount() - 1);
  par_[p] = firstMinPort(p);
}

void BfsTree::doRandomizeNode(NodeId p, Rng& rng) {
  if (p == graph().root()) return;
  dist_[p] = rng.between(1, graph().nodeCount() - 1);
  par_[p] = rng.below(graph().degree(p));
}

std::vector<int> BfsTree::rawNode(NodeId p) const {
  if (p == graph().root()) return {};
  return {dist_[p],
          par_[p]};
}

void BfsTree::doSetRawNode(NodeId p, std::span<const int> values) {
  if (p == graph().root()) {
    SSNO_EXPECTS(values.empty());
    return;
  }
  SSNO_EXPECTS(values.size() == 2);
  dist_[p] = values[0];
  par_[p] = values[1];
}

std::uint64_t BfsTree::localStateCount(NodeId p) const {
  if (p == graph().root()) return 1;  // the root stores nothing
  // dist ∈ {1..N−1}, par ∈ {0..Δp−1}
  return static_cast<std::uint64_t>(graph().nodeCount() - 1) *
         static_cast<std::uint64_t>(graph().degree(p));
}

std::uint64_t BfsTree::encodeNode(NodeId p) const {
  if (p == graph().root()) return 0;
  const std::uint64_t dCode =
      static_cast<std::uint64_t>(dist_[p] - 1);
  const std::uint64_t parCode =
      static_cast<std::uint64_t>(par_[p]);
  return dCode + static_cast<std::uint64_t>(graph().nodeCount() - 1) * parCode;
}

void BfsTree::doDecodeNode(NodeId p, std::uint64_t code) {
  SSNO_EXPECTS(code < localStateCount(p));
  if (p == graph().root()) return;
  const std::uint64_t base = static_cast<std::uint64_t>(graph().nodeCount() - 1);
  dist_[p] = static_cast<int>(code % base) + 1;
  par_[p] = static_cast<int>(code / base);
}

std::string BfsTree::dumpNode(NodeId p) const {
  if (p == graph().root()) return "root(dist=0)";
  std::ostringstream out;
  out << "dist=" << dist_[p] << " par="
      << graph().neighborAt(p, par_[p]);
  return out.str();
}

Port BfsTree::parentPort(NodeId p) const {
  return p == graph().root() ? kNoPort : par_[p];
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
