#include "sptree/lex_dfs_tree.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/assert.hpp"

namespace ssno {

LexDfsTree::LexDfsTree(Graph graph)
    : Protocol(std::move(graph)),
      arena_(this->graph(), DigitOrder::kLeastFirst),
      par_(arena_.nodeColumn({.perDegree = 1, .rootPin = 0})),
      has_(arena_.nodeColumn({.base = 2, .rootPin = 1})),
      word_(arena_.varColumn()) {
  SSNO_EXPECTS(this->graph().nodeCount() >= 2);
  SSNO_EXPECTS(this->graph().isConnected());
  maxDegree_ = this->graph().maxDegree();
  addArena(arena_);
}

std::string LexDfsTree::actionName(int action) const {
  SSNO_EXPECTS(action == kFix);
  return "LexFix";
}

bool LexDfsTree::candLess(const Cand& a, const Cand& b) {
  if (!a.valid) return false;  // ⊤ is never smaller
  if (!b.valid) return true;   // anything < ⊤
  const std::size_t lenA = a.prefix.size() + 1;
  const std::size_t lenB = b.prefix.size() + 1;
  const std::size_t common = std::min(lenA, lenB);
  for (std::size_t i = 0; i < common; ++i) {
    const int ai = i < a.prefix.size() ? a.prefix[i] : a.last;
    const int bi = i < b.prefix.size() ? b.prefix[i] : b.last;
    if (ai != bi) return ai < bi;
  }
  return lenA < lenB;
}

LexDfsTree::Cand LexDfsTree::candidateVia(NodeId p, Port l) const {
  const NodeId q = graph().neighborAt(p, l);
  Cand c;
  if (!has_[q]) return c;
  if (word_.length(q) + 1 > graph().nodeCount() - 1)
    return c;  // longer than any simple path: ⊤
  c.valid = true;
  c.prefix = word_.row(q);
  c.last = graph().backPort(p, l);
  c.port = l;
  return c;
}

LexDfsTree::Cand LexDfsTree::bestCandidate(NodeId p) const {
  Cand best;  // starts at ⊤
  for (Port l = 0; l < graph().degree(p); ++l) {
    const Cand cand = candidateVia(p, l);
    if (candLess(cand, best)) best = cand;
  }
  return best;
}

bool LexDfsTree::wordEquals(NodeId p, const Cand& c) const {
  if (!c.valid) return !has_[p];
  if (!has_[p]) return false;
  const std::span<const int> w = word_.row(p);
  if (w.size() != c.prefix.size() + 1) return false;
  if (w.back() != c.last) return false;
  return std::equal(c.prefix.begin(), c.prefix.end(), w.begin());
}

bool LexDfsTree::enabled(NodeId p, int action) const {
  if (action != kFix || p == graph().root()) return false;
  const Cand best = bestCandidate(p);
  if (!wordEquals(p, best)) return true;
  // Word already minimal; the recorded parent must attain it.
  return best.valid && par_[p] != best.port;
}

void LexDfsTree::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  const Cand best = bestCandidate(p);
  if (best.valid) {
    // best.prefix aliases the word pool; stage through scratch_ because
    // setRow may relocate it.
    scratch_.assign(best.prefix.begin(), best.prefix.end());
    scratch_.push_back(best.last);
    has_[p] = 1;
    word_.setRow(p, scratch_);
  } else {
    has_[p] = 0;
    word_.setRow(p, {});  // absent words keep a canonical empty row
  }
  par_[p] = best.port == kNoPort ? 0 : best.port;
}

void LexDfsTree::doRandomizeNode(NodeId p, Rng& rng) {
  if (p == graph().root()) return;  // the root's word is hard-wired
  // Random word: random length 0..n−1 (or ⊤), random alphabet entries.
  const int n = graph().nodeCount();
  if (rng.chance(0.15)) {
    has_[p] = 0;
    word_.setRow(p, {});
  } else {
    const int len = rng.below(n);
    scratch_.resize(static_cast<std::size_t>(len));
    for (int& x : scratch_) x = rng.below(std::max(1, maxDegree_));
    has_[p] = 1;
    word_.setRow(p, scratch_);
  }
  par_[p] = rng.below(graph().degree(p));
}

std::uint64_t LexDfsTree::localStateCount(NodeId p) const {
  if (p == graph().root()) return 1;
  // Words of length 0..n−1 over the max-degree alphabet, plus ⊤, times
  // the parent port.  (Exhaustive checking is only feasible on tiny
  // graphs, as for the other protocols.)
  const std::uint64_t a = static_cast<std::uint64_t>(std::max(1, maxDegree_));
  std::uint64_t words = 1;  // ⊤
  std::uint64_t lenCount = 1;
  for (int k = 0; k < graph().nodeCount(); ++k) {
    words += lenCount;
    lenCount *= a;
  }
  return words * static_cast<std::uint64_t>(graph().degree(p));
}

std::uint64_t LexDfsTree::encodeNode(NodeId p) const {
  if (p == graph().root()) return 0;
  const std::uint64_t a = static_cast<std::uint64_t>(std::max(1, maxDegree_));
  // Word index: 0 = ⊤; otherwise 1 + Σ_{k<len} a^k + value-as-base-a.
  std::uint64_t widx = 0;
  if (has_[p]) {
    const std::span<const int> w = word_.row(p);
    widx = 1;
    std::uint64_t lenCount = 1;
    for (std::size_t k = 0; k < w.size(); ++k) {
      widx += lenCount;
      lenCount *= a;
    }
    std::uint64_t value = 0;
    for (int x : w) value = value * a + static_cast<std::uint64_t>(x);
    widx += value;  // offset within the length block
  }
  return widx * static_cast<std::uint64_t>(graph().degree(p)) +
         static_cast<std::uint64_t>(par_[p]);
}

void LexDfsTree::doDecodeNode(NodeId p, std::uint64_t code) {
  SSNO_EXPECTS(code < localStateCount(p));
  if (p == graph().root()) return;
  const std::uint64_t deg = static_cast<std::uint64_t>(graph().degree(p));
  par_[p] = static_cast<Port>(code % deg);
  std::uint64_t widx = code / deg;
  if (widx == 0) {
    has_[p] = 0;
    word_.setRow(p, {});
    return;
  }
  --widx;
  const std::uint64_t a = static_cast<std::uint64_t>(std::max(1, maxDegree_));
  std::uint64_t lenCount = 1;
  int len = 0;
  while (widx >= lenCount) {
    widx -= lenCount;
    lenCount *= a;
    ++len;
  }
  scratch_.resize(static_cast<std::size_t>(len));
  for (int k = len - 1; k >= 0; --k) {
    scratch_[static_cast<std::size_t>(k)] = static_cast<int>(widx % a);
    widx /= a;
  }
  has_[p] = 1;
  word_.setRow(p, scratch_);
}

std::string LexDfsTree::dumpNode(NodeId p) const {
  std::ostringstream out;
  out << "w=";
  if (!has_[p]) {
    out << "T";
  } else {
    out << '(';
    const std::span<const int> w = word_.row(p);
    for (std::size_t k = 0; k < w.size(); ++k) {
      if (k) out << ',';
      out << w[k];
    }
    out << ')';
  }
  if (p != graph().root())
    out << " par=" << graph().neighborAt(p, par_[p]);
  return out.str();
}

bool LexDfsTree::isLegitimate() const {
  for (NodeId p = 0; p < graph().nodeCount(); ++p)
    if (enabled(p, kFix)) return false;
  return true;
}

double LexDfsTree::stateBits(NodeId p) const {
  if (p == graph().root()) return 0.0;
  const double logA = std::max(1.0, std::log2(std::max(2, maxDegree_)));
  return (graph().nodeCount() - 1) * logA +
         std::log2(std::max(2, graph().degree(p)));
}

}  // namespace ssno
