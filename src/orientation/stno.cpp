#include "orientation/stno.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/assert.hpp"
#include "orientation/chordal_kernel.hpp"

namespace ssno {

Stno::Stno(Graph graph)
    : Protocol(graph),
      arena_(this->graph(), DigitOrder::kMostFirst),
      weight_(arena_.nodeColumn({.lo = 1, .base = modulus()})),
      eta_(arena_.nodeColumn({.base = modulus()})),
      start_(arena_.portColumn({.base = modulus()})),
      pi_(arena_.portColumn({.base = modulus()})) {
  bfs_ = std::make_unique<BfsTree>(this->graph());
  view_ = bfs_.get();
  addArenas(*bfs_);
  addArena(arena_);
}

Stno::Stno(Graph graph, const std::vector<NodeId>& fixedParents)
    : Protocol(graph),
      arena_(this->graph(), DigitOrder::kMostFirst),
      weight_(arena_.nodeColumn({.lo = 1, .base = modulus()})),
      eta_(arena_.nodeColumn({.base = modulus()})),
      start_(arena_.portColumn({.base = modulus()})),
      pi_(arena_.portColumn({.base = modulus()})) {
  fixed_ = std::make_unique<FixedTree>(this->graph(), fixedParents);
  view_ = fixed_.get();
  addArena(arena_);
}

std::string Stno::actionName(int action) const {
  switch (action) {
    case kTreeFix:
      return "TreeFix";
    case kNodeLabel:
      return "NodeLabel";
    case kEdgeLabel:
      return "EdgeLabel";
    case kWeight:
      return "Weight";
    default:
      return "?";
  }
}

bool Stno::isChild(NodeId p, NodeId q) const {
  return q != graph().root() &&
         graph().neighborAt(q, view_->parentPort(q)) == p;
}

int Stno::expectedWeight(NodeId p) const {
  int sum = 1;  // the node itself
  for (NodeId q : graph().neighbors(p))
    if (isChild(p, q)) sum += weight_[q];
  return std::min(sum, graph().nodeCount());
}

int Stno::startFromParent(NodeId p) const {
  const Port l = view_->parentPort(p);
  SSNO_EXPECTS(l != kNoPort);
  return start_.at(graph().neighborAt(p, l), graph().backPort(p, l));
}

bool Stno::startInconsistent(NodeId p) const {
  // Erratum fix 1: validate p's own Start entries against Distribute's
  // computation from η_p and the children's Weight variables.
  int given = eta_[p];
  for (Port l = 0; l < graph().degree(p); ++l) {
    const NodeId q = graph().neighborAt(p, l);
    if (!isChild(p, q)) continue;
    const int expected = (given + 1) % modulus();
    if (start_.at(p, l) != expected) return true;
    given = (given + weight_[q]) % modulus();
  }
  return false;
}

bool Stno::invalidNodeLabel(NodeId p) const {
  if (p == graph().root()) return eta_[p] != 0 || startInconsistent(p);
  bool leaf = true;
  for (NodeId q : graph().neighbors(p)) {
    if (isChild(p, q)) {
      leaf = false;
      break;
    }
  }
  if (leaf) return eta_[p] != startFromParent(p);
  return eta_[p] != startFromParent(p) || startInconsistent(p);
}

bool Stno::invalidEdgeLabel(NodeId p) const {
  for (Port l = 0; l < graph().degree(p); ++l) {
    const NodeId q = graph().neighborAt(p, l);
    if (pi_.at(p, l) !=
        chordalDistance(eta_[p], eta_[q], modulus()))
      return true;
  }
  return false;
}

void Stno::evaluateGuards(std::span<const NodeId> nodes,
                          std::uint64_t* masks) const {
  if (bfs_) {
    // BfsTree::kFix and kTreeFix are both bit 0, so the substrate's
    // batch kernel writes the tree bit directly into our masks.
    bfs_->evaluateGuards(nodes, masks);
  } else {
    for (std::size_t i = 0; i < nodes.size(); ++i) masks[i] = 0;
  }
  const int n = modulus();
  const int* eta = eta_.data().data();
  const int* weight = weight_.data().data();
  const int* start = start_.data().data();
  const int* pi = pi_.data().data();
  const Graph& g = graph();
  const NodeId root = g.root();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId p = nodes[i];
    const auto nbrs = g.neighbors(p);
    const std::size_t base = g.portBase(p);
    // One fused child walk: CalcWeight's Σ and the Start-row
    // consistency check (erratum fix 1) share the iteration.
    int given = eta[p];
    int sum = 1;  // the node itself
    bool startBad = false;
    for (std::size_t l = 0; l < nbrs.size(); ++l) {
      const NodeId q = nbrs[l];
      if (!isChild(p, q)) continue;
      if (!startBad) {
        if (start[base + l] != (given + 1) % n)
          startBad = true;
        else
          given = (given + weight[q]) % n;
      }
      sum += weight[q];
    }
    // For a leaf startBad is vacuously false, so the non-root leaf and
    // interior forms of InvalidNodelabel collapse into one expression.
    const bool invalidNode =
        p == root ? (eta[p] != 0 || startBad)
                  : (eta[p] != startFromParent(p) || startBad);
    std::uint64_t mask = masks[i] & 1;  // substrate TreeFix bit
    if (invalidNode) {
      mask |= std::uint64_t{1} << kNodeLabel;
    } else if (chordalRowMismatch(pi + base, nbrs.data(), eta, eta[p],
                                  static_cast<int>(nbrs.size()), n)) {
      mask |= std::uint64_t{1} << kEdgeLabel;
    }
    if (weight[p] != std::min(sum, g.nodeCount()))
      mask |= std::uint64_t{1} << kWeight;
    masks[i] = mask;
  }
}

bool Stno::enabled(NodeId p, int action) const {
  switch (action) {
    case kTreeFix:
      return bfs_ != nullptr && bfs_->enabled(p, BfsTree::kFix);
    case kNodeLabel:
      return invalidNodeLabel(p);
    case kEdgeLabel:
      return !invalidNodeLabel(p) && invalidEdgeLabel(p);
    case kWeight:
      return weight_[p] != expectedWeight(p);
    default:
      return false;
  }
}

void Stno::applyDistribute(NodeId p) {
  int given = eta_[p];
  for (Port l = 0; l < graph().degree(p); ++l) {
    const NodeId q = graph().neighborAt(p, l);
    if (!isChild(p, q)) continue;
    start_.at(p, l) = (given + 1) % modulus();
    given = (given + weight_[q]) % modulus();
  }
}

void Stno::applyEdgeLabels(NodeId p) {
  for (Port l = 0; l < graph().degree(p); ++l) {
    const NodeId q = graph().neighborAt(p, l);
    pi_.at(p, l) =
        chordalDistance(eta_[p], eta_[q], modulus());
  }
}

void Stno::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  switch (action) {
    case kTreeFix:
      bfs_->execute(p, BfsTree::kFix);
      break;
    case kNodeLabel:
      eta_[p] = view_->roleOf(p) == TreeRole::kRoot
                         ? 0
                         : startFromParent(p);
      applyDistribute(p);   // no-op for leaves (no children)
      applyEdgeLabels(p);
      break;
    case kEdgeLabel:
      applyEdgeLabels(p);
      break;
    case kWeight:
      weight_[p] = expectedWeight(p);
      break;
    default:
      SSNO_ASSERT(false);
  }
}

std::string Stno::dumpNode(NodeId p) const {
  std::ostringstream out;
  if (bfs_ != nullptr) out << bfs_->dumpNode(p) << ' ';
  out << "W=" << weight_[p] << " eta=" << eta_[p] << " start=[";
  for (Port l = 0; l < graph().degree(p); ++l) {
    if (l) out << ' ';
    out << start_.at(p, l);
  }
  out << "] pi=[";
  for (Port l = 0; l < graph().degree(p); ++l) {
    if (l) out << ' ';
    out << pi_.at(p, l);
  }
  out << ']';
  return out.str();
}

Orientation Stno::orientation() const {
  Orientation o;
  o.graph = &graph();
  o.modulus = modulus();
  o.name = eta_.data();
  o.label = pi_.data();
  return o;
}

GuardCounts& Stno::counts() {
  if (!counts_) {
    constexpr std::uint64_t kTree = std::uint64_t{1} << kTreeFix;
    constexpr std::uint64_t kOverlay = (std::uint64_t{1} << kNodeLabel) |
                                       (std::uint64_t{1} << kEdgeLabel) |
                                       (std::uint64_t{1} << kWeight);
    counts_ = std::make_unique<GuardCounts>(
        *this, std::vector<std::uint64_t>{kTree, kOverlay});
  }
  return *counts_;
}

bool Stno::substrateLegitimate() { return !counts().anyEnabled(0); }

bool Stno::isLegitimate() {
  return substrateLegitimate() && !counts().anyEnabled(1);
}

double Stno::stateBits(NodeId p) const {
  return substrateBits(p) + orientationBits(p);
}

double Stno::orientationBits(NodeId p) const {
  const double logN = std::log2(static_cast<double>(modulus()));
  // Weight + η + Δp Start entries + Δp π entries.
  return (2.0 + 2.0 * graph().degree(p)) * logN;
}

double Stno::substrateBits(NodeId p) const {
  return bfs_ ? bfs_->stateBits(p) : 0.0;
}

}  // namespace ssno
