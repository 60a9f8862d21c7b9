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

bool Stno::isChild(const Port* par, NodeId p, Port l) const {
  const NodeId q = graph().neighborAt(p, l);
  return q != graph().root() &&
         par[static_cast<std::size_t>(q)] == graph().backPort(p, l);
}

int Stno::expectedWeight(NodeId p) const {
  const Port* par = view_->parentPorts().data();
  int sum = 1;  // the node itself
  for (Port l = 0; l < graph().degree(p); ++l)
    if (isChild(par, p, l)) sum += weight_[graph().neighborAt(p, l)];
  return std::min(sum, graph().nodeCount());
}

int Stno::startFromParent(NodeId p) const {
  SSNO_EXPECTS(p != graph().root());
  const Port l = view_->parentPorts()[static_cast<std::size_t>(p)];
  return start_.at(graph().neighborAt(p, l), graph().backPort(p, l));
}

bool Stno::startInconsistent(NodeId p) const {
  // Erratum fix 1: validate p's own Start entries against Distribute's
  // computation from η_p and the children's Weight variables.
  const Port* par = view_->parentPorts().data();
  int given = eta_[p];
  for (Port l = 0; l < graph().degree(p); ++l) {
    if (!isChild(par, p, l)) continue;
    const int expected = (given + 1) % modulus();
    if (start_.at(p, l) != expected) return true;
    given = (given + weight_[graph().neighborAt(p, l)]) % modulus();
  }
  return false;
}

bool Stno::invalidNodeLabel(NodeId p) const {
  if (p == graph().root()) return eta_[p] != 0 || startInconsistent(p);
  const Port* par = view_->parentPorts().data();
  bool leaf = true;
  for (Port l = 0; l < graph().degree(p); ++l) {
    if (isChild(par, p, l)) {
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

namespace {

// Distribute's recurrence without a division while its operands are in
// range: the Start entry (given + 1) mod N, then given := (given + W_q)
// mod N.  Faults can put any raw value in η or W, so an out-of-range
// operand takes the exact % form, and the kernel stays bit-identical to
// the scalar startInconsistent on every raw value.
int nextStart(int given, int n) {
  if (given >= 0 && given < n) return given + 1 == n ? 0 : given + 1;
  return (given + 1) % n;
}

int nextGiven(int given, int w, int n) {
  if (given >= 0 && given < n && w >= 0 && w <= n) {
    const int sum = given + w;
    return sum >= n ? sum - n : sum;
  }
  return (given + w) % n;
}

}  // namespace

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
  const Port* par = view_->parentPorts().data();
  const Graph& g = graph();
  const NodeId root = g.root();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId p = nodes[i];
    const auto nbrs = g.neighbors(p);
    const Port* back = g.backPorts(p).data();
    const std::size_t base = g.portBase(p);
    // One fused child walk: CalcWeight's Σ and the Start-row
    // consistency check (erratum fix 1) share the iteration.
    int given = eta[p];
    int sum = 1;  // the node itself
    bool startBad = false;
    for (std::size_t l = 0; l < nbrs.size(); ++l) {
      const NodeId q = nbrs[l];
      if (q == root || par[q] != back[l]) continue;  // not a child
      if (!startBad) {
        if (start[base + l] != nextStart(given, n))
          startBad = true;
        else
          given = nextGiven(given, weight[q], n);
      }
      sum += weight[q];
    }
    // For a leaf startBad is vacuously false, so the non-root leaf and
    // interior forms of InvalidNodelabel collapse into one test.
    bool invalidNode = startBad;
    if (p == root) {
      invalidNode = invalidNode || eta[p] != 0;
    } else if (!invalidNode) {
      // η_p against Start_{A_p}[p], the parent's entry at the back port
      // of p's parent port.
      const auto l = static_cast<std::size_t>(par[p]);
      const auto atParent = static_cast<std::size_t>(back[l]);
      invalidNode = eta[p] != start[g.portBase(nbrs[l]) + atParent];
    }
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

void Stno::appendDistribute(NodeId p, int eta) {
  const auto old = start_.row(p);
  const std::size_t at = rows_.size();
  rows_.insert(rows_.end(), old.begin(), old.end());
  const Port* par = view_->parentPorts().data();
  int given = eta;
  for (Port l = 0; l < graph().degree(p); ++l) {
    if (!isChild(par, p, l)) continue;  // non-child entries keep theirs
    rows_[at + static_cast<std::size_t>(l)] = (given + 1) % modulus();
    given = (given + weight_[graph().neighborAt(p, l)]) % modulus();
  }
}

void Stno::appendEdgeLabels(NodeId p, int eta) {
  const std::size_t at = rows_.size();
  rows_.resize(at + static_cast<std::size_t>(graph().degree(p)));
  chordalRowFill(rows_.data() + at, graph().neighbors(p).data(),
                 eta_.data().data(), eta, graph().degree(p), modulus());
}

Stno::Outcome Stno::outcome(NodeId p, int action) {
  Outcome o;
  o.action = action;
  o.rows = rows_.size();
  switch (action) {
    case kTreeFix:
      o.tree = bfs_->outcome(p);
      break;
    case kNodeLabel:
      // η_p := Start_{A_p}[p] (root: 0); Distribute_p and Edgelabel_p
      // then read the new η_p.
      o.value = p == graph().root() ? 0 : startFromParent(p);
      appendDistribute(p, o.value);  // no child entries for a leaf
      appendEdgeLabels(p, o.value);
      break;
    case kEdgeLabel:
      appendEdgeLabels(p, eta_[p]);
      break;
    case kWeight:
      o.value = expectedWeight(p);
      break;
    default:
      SSNO_ASSERT(false);
  }
  return o;
}

void Stno::commit(NodeId p, const Outcome& o) {
  const int* rows = rows_.data() + o.rows;
  const auto deg = static_cast<std::size_t>(graph().degree(p));
  switch (o.action) {
    case kTreeFix:
      bfs_->commit(p, o.tree);
      break;
    case kNodeLabel:
      eta_[p] = o.value;
      std::copy_n(rows, deg, start_.row(p).begin());
      std::copy_n(rows + deg, deg, pi_.row(p).begin());
      break;
    case kEdgeLabel:
      std::copy_n(rows, deg, pi_.row(p).begin());
      break;
    case kWeight:
      weight_[p] = o.value;
      break;
    default:
      SSNO_ASSERT(false);
  }
}

void Stno::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  rows_.clear();
  commit(p, outcome(p, action));
}

bool Stno::doExecuteSimultaneous(std::span<const Move> moves) {
  expectEnabled(moves);
  rows_.clear();
  batch_.clear();
  for (const Move& m : moves) batch_.push_back(outcome(m.node, m.action));
  for (std::size_t i = 0; i < moves.size(); ++i)
    commit(moves[i].node, batch_[i]);
  return true;
}

void Stno::dirtyAfterWrite(NodeId p, int action) {
  switch (action) {
    case kEdgeLabel:
      dirtyNode(p);
      break;
    case kWeight: {
      dirtyNode(p);
      const NodeId parent = view_->parentOf(p);
      if (parent != kNoNode) dirtyNode(parent);
      break;
    }
    default:
      dirtyNeighborhood(p);
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
