#include "orientation/baseline.hpp"

#include <sstream>

#include "core/assert.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno {

InitBasedOrientation::InitBasedOrientation(Graph graph)
    : Protocol(std::move(graph)),
      arena_(this->graph()),
      done_(arena_.nodeColumn(0)),
      numbered_(arena_.nodeColumn(0)),
      eta_(arena_.nodeColumn(0)),
      pi_(arena_.portColumn(0)) {
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

void InitBasedOrientation::doRandomizeNode(NodeId p, Rng& rng) {
  done_[p] = rng.below(2);
  numbered_[p] = rng.below(2);
  eta_[p] = rng.below(modulus());
  for (auto& v : pi_.row(p)) v = rng.below(modulus());
}

std::uint64_t InitBasedOrientation::localStateCount(NodeId p) const {
  const std::uint64_t nn = static_cast<std::uint64_t>(modulus());
  std::uint64_t count = 4 * nn;  // done, numbered, eta
  for (Port l = 0; l < graph().degree(p); ++l) count *= nn;
  return count;
}

std::uint64_t InitBasedOrientation::encodeNode(NodeId p) const {
  const std::uint64_t nn = static_cast<std::uint64_t>(modulus());
  std::uint64_t code = static_cast<std::uint64_t>(done_[p]);
  code = code * 2 + static_cast<std::uint64_t>(numbered_[p]);
  code = code * nn + static_cast<std::uint64_t>(eta_[p]);
  for (int v : pi_.row(p)) code = code * nn + static_cast<std::uint64_t>(v);
  return code;
}

void InitBasedOrientation::doDecodeNode(NodeId p, std::uint64_t code) {
  SSNO_EXPECTS(code < localStateCount(p));
  const std::uint64_t nn = static_cast<std::uint64_t>(modulus());
  for (Port l = graph().degree(p) - 1; l >= 0; --l) {
    pi_.at(p, l) = static_cast<int>(code % nn);
    code /= nn;
  }
  eta_[p] = static_cast<int>(code % nn);
  code /= nn;
  numbered_[p] = static_cast<int>(code % 2);
  code /= 2;
  done_[p] = static_cast<int>(code);
}

std::vector<int> InitBasedOrientation::rawNode(NodeId p) const {
  return arena_.rawNode(p);
}

std::size_t InitBasedOrientation::rawNodeLength(NodeId p) const {
  return arena_.rawLength(p);
}

void InitBasedOrientation::doSetRawNode(NodeId p,
                                        std::span<const int> values) {
  arena_.setRawNode(p, values);
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

void InitBasedOrientation::dirtyAfterWrite(NodeId p) {
  dirtyNeighborhood(p);
  if (successor_[idx(p)] != kNoNode) dirtyNode(successor_[idx(p)]);
}

bool InitBasedOrientation::isCorrect() const {
  for (int d : done_.data())
    if (!d) return false;
  return satisfiesSpec(orientation());
}

}  // namespace ssno
