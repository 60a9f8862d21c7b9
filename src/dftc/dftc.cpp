#include "dftc/dftc.hpp"

#include <cmath>
#include <sstream>

#include "core/assert.hpp"

namespace ssno {

Dftc::Dftc(Graph graph)
    : Protocol(std::move(graph)),
      arena_(this->graph(), DigitOrder::kLeastFirst),
      s_(arena_.nodeColumn({.lo = kIdle, .base = 1, .perDegree = 1})),
      col_(arena_.nodeColumn({.base = 2})),
      d_(arena_.nodeColumn({.base = this->graph().nodeCount(), .rootPin = 0})),
      par_(arena_.nodeColumn({.perDegree = 1, .rootPin = 0})) {
  SSNO_EXPECTS(this->graph().nodeCount() >= 2);
  SSNO_EXPECTS(this->graph().isConnected());
  addArena(arena_);
}

std::string Dftc::actionName(int action) const {
  switch (action) {
    case kStart:
      return "Start";
    case kResume:
      return "Resume";
    case kForward:
      return "Forward";
    case kAdvance:
      return "Advance";
    case kStaleChild:
      return "StaleChild";
    case kError:
      return "Error";
    default:
      return "?";
  }
}

Port Dftc::firstUnvisitedPort(NodeId p, int ownCol) const {
  for (Port l = 0; l < graph().degree(p); ++l) {
    const NodeId q = graph().neighborAt(p, l);
    if (col_[q] != ownCol && s_[q] == kIdle) return l;
  }
  return kNoPort;
}

Port Dftc::firstOfferingParentPort(NodeId p) const {
  // A neighbor at depth N−1 can never legitimately offer the token: its
  // chain would already contain all N processors, leaving nobody
  // unvisited.  Ignoring such offers is therefore free in clean rounds,
  // and essential for stabilization: the depth cap would otherwise let a
  // corrupt deep pointer be re-adopted over and over (a weakly-fair
  // livelock the model checker found on the diamond graph — the
  // adopting node reproduces d = min((N−1)+1, N−1) = N−1 and the same
  // corrupt configuration recurs).
  const int maxDepth = graph().nodeCount() - 1;
  for (Port l = 0; l < graph().degree(p); ++l) {
    const NodeId q = graph().neighborAt(p, l);
    if (s_[q] != kIdle && target(q) == p &&
        col_[q] != col_[p] && depth(q) < maxDepth)
      return l;
  }
  return kNoPort;
}

bool Dftc::validParent(NodeId p) const {
  SSNO_EXPECTS(p != graph().root());
  const Port pp = par_[p];
  if (pp < 0 || pp >= graph().degree(p)) return false;
  const NodeId w = graph().neighborAt(p, pp);
  return s_[w] != kIdle && target(w) == p &&
         depth(w) == depth(p) - 1 && col_[w] == col_[p];
}

bool Dftc::enabled(NodeId p, int action) const {
  const bool isRoot = (p == graph().root());
  switch (action) {
    case kStart: {
      // Round over: idle root, every neighbor already carries our color.
      if (!isRoot || s_[p] != kIdle) return false;
      for (NodeId q : graph().neighbors(p))
        if (col_[q] != col_[p]) return false;
      return true;
    }
    case kResume: {
      // Error escape: idle root facing an unvisited-looking neighbor
      // while its own Start guard is blocked by mixed colors.
      if (!isRoot || s_[p] != kIdle) return false;
      if (enabled(p, kStart)) return false;
      return firstUnvisitedPort(p, col_[p]) != kNoPort;
    }
    case kForward: {
      if (isRoot || s_[p] != kIdle) return false;
      return firstOfferingParentPort(p) != kNoPort;
    }
    case kAdvance: {
      if (s_[p] == kIdle) return false;
      if (!isRoot && !validParent(p)) return false;
      const NodeId x = target(p);
      return s_[x] == kIdle && col_[x] == col_[p];
    }
    case kStaleChild: {
      // p waits on a pointer-holding target that never adopted p (or on
      // the root, which adopts nobody): the wait would never resolve.
      if (s_[p] == kIdle) return false;
      if (!isRoot && !validParent(p)) return false;
      const NodeId x = target(p);
      if (s_[x] == kIdle) return false;
      if (x == graph().root()) return true;
      return graph().neighborAt(x, par_[x]) != p;
    }
    case kError: {
      if (isRoot || s_[p] == kIdle) return false;
      return !validParent(p);
    }
    default:
      return false;
  }
}

void Dftc::evaluateGuards(std::span<const NodeId> nodes,
                          std::uint64_t* masks) const {
  const NodeId root = graph().root();
  const int maxDepth = graph().nodeCount() - 1;
  // Whole-configuration batches — the dense-refresh / full-rescan path —
  // precompute one token-offer byte per node in a single sequential
  // sweep: bit c of offers_[x] says some neighbor q offers x the token
  // (q points at x, q's depth is below the cap) with col_q != c.  The
  // Forward guard of an idle node then reads one byte instead of
  // walking its neighborhood.  The batch contract (node-sorted,
  // deduplicated) makes size == n the identity list, so every offer
  // source is scanned exactly once.
  const auto n = static_cast<std::size_t>(graph().nodeCount());
  const bool offersPass = nodes.size() == n;
  if (offersPass) {
    offers_.assign(n, 0);
    const int* s = s_.data().data();
    const int* col = col_.data().data();
    const int* d = d_.data().data();
    for (std::size_t q = 0; q < n; ++q) {
      const int sq = s[q];
      if (sq == kIdle) continue;
      const int dq = q == static_cast<std::size_t>(root) ? 0 : d[q];
      if (dq >= maxDepth) continue;
      const NodeId x = graph().neighborAt(static_cast<NodeId>(q),
                                          static_cast<Port>(sq));
      // Bit c records an offer valid for a receiver of color c, i.e.
      // col_q != c; out-of-range colors (transient faults) offer both.
      offers_[static_cast<std::size_t>(x)] |= static_cast<std::uint8_t>(
          (col[q] != 0 ? 1u : 0u) | (col[q] != 1 ? 2u : 0u));
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId p = nodes[i];
    const int sp = s_[p];
    const int cp = col_[p];
    std::uint64_t mask = 0;
    if (sp == kIdle) {
      if (p == root) {
        // Start and Resume share one neighborhood walk: Start ⇔ all
        // neighbors carry our color; Resume ⇔ ¬Start ∧ some unvisited-
        // looking (differently colored, idle) neighbor exists.
        bool allSame = true;
        bool anyUnvisited = false;
        for (const NodeId q : graph().neighbors(p)) {
          if (col_[q] != cp) {
            allSame = false;
            if (s_[q] == kIdle) anyUnvisited = true;
          }
        }
        if (allSame)
          mask = std::uint64_t{1} << kStart;
        else if (anyUnvisited)
          mask = std::uint64_t{1} << kResume;
      } else if (offersPass && (cp == 0 || cp == 1)) {
        // Forward ⇔ the precomputed offer byte has our color's bit
        // (out-of-range own colors keep the exact walk below).
        if (offers_[static_cast<std::size_t>(p)] & (1u << cp))
          mask = std::uint64_t{1} << kForward;
      } else {
        // Forward ⇔ some neighbor offers the token (condition order
        // matches firstOfferingParentPort exactly).
        for (const NodeId q : graph().neighbors(p)) {
          if (s_[q] != kIdle && target(q) == p && col_[q] != cp &&
              depth(q) < maxDepth) {
            mask = std::uint64_t{1} << kForward;
            break;
          }
        }
      }
    } else {
      // Pointer-holding nodes are O(1): exactly one of Advance /
      // StaleChild / Error can be enabled, discriminated by the parent
      // link and the target's state.
      if (p != root && !validParent(p)) {
        mask = std::uint64_t{1} << kError;
      } else {
        const NodeId x = target(p);
        if (s_[x] == kIdle) {
          if (col_[x] == cp) mask = std::uint64_t{1} << kAdvance;
        } else if (x == root || graph().neighborAt(x, par_[x]) != p) {
          mask = std::uint64_t{1} << kStaleChild;
        }
      }
    }
    masks[i] = mask;
  }
}

void Dftc::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  commit(p, outcome(p, action));
}

Dftc::Outcome Dftc::outcome(NodeId p, int action) const {
  Outcome o{.s = s_[p], .col = col_[p], .d = d_[p], .par = par_[p]};
  switch (action) {
    case kStart:
      // A fresh token: the root flips its color, so every neighbor looks
      // unvisited.  In a corrupt state they might all hold pointers; the
      // root then stays idle until they unravel (the flip still made
      // progress).
      o.col ^= 1;
      o.event = Outcome::Event::kRoundStart;
      break;
    case kForward: {
      // Adopt the smallest offering port as parent and take its color
      // and depth.
      const Port fromPort = firstOfferingParentPort(p);
      const NodeId parent = graph().neighborAt(p, fromPort);
      o.par = fromPort;
      o.col = col_[parent];
      o.d = std::min(depth(parent) + 1, graph().nodeCount() - 1);
      o.event = Outcome::Event::kForward;
      o.peer = parent;
      break;
    }
    case kAdvance:
      // The current child finished: the token is back (the paper's
      // Backtrack).
      o.event = Outcome::Event::kBacktrack;
      o.peer = target(p);
      break;
    case kResume:
    case kStaleChild:
      // Re-extend the chain / advance past the stale target;
      // firstUnvisitedPort skips pointer-holding neighbors, so the same
      // target cannot be re-selected.
      break;
    case kError:
      o.s = kIdle;
      return o;
    default:
      SSNO_ASSERT(false);
  }
  // Every other statement ends pointing at p's first unvisited neighbor,
  // judged by the color p will have, or idle if none remains.
  static_assert(kNoPort == kIdle);
  o.s = firstUnvisitedPort(p, o.col);
  return o;
}

bool Dftc::doExecuteSimultaneous(std::span<const Move> moves) {
  batch_.clear();
  batch_.reserve(moves.size());
  for (const Move& m : moves) {
    // Per-move enabledness is the caller's precondition; re-deriving it
    // here is a full scalar guard evaluation per move — Debug-only.
    SSNO_DBG_ASSERT(enabled(m.node, m.action));
    batch_.push_back(outcome(m.node, m.action));
  }
  for (std::size_t i = 0; i < moves.size(); ++i)
    commit(moves[i].node, batch_[i]);
  return true;
}

bool Dftc::holdsToken(NodeId p) const {
  for (int a = 0; a < kActionCount; ++a)
    if (enabled(p, a)) return true;
  return false;
}

std::string Dftc::dumpNode(NodeId p) const {
  std::ostringstream out;
  out << "S=";
  if (s_[p] == kIdle)
    out << 'C';
  else
    out << "->" << target(p);
  out << " col=" << col_[p];
  if (p != graph().root())
    out << " d=" << d_[p] << " par=" << graph().neighborAt(p, par_[p]);
  return out.str();
}

void Dftc::resetClean() {
  s_.fill(kIdle);
  col_.fill(0);
  d_.fill(0);
  par_.fill(0);
  noteWriteAll();
}

const OrbitIndex& Dftc::orbitIndex() {
  if (!orbit_) {
    // The legitimate execution is deterministic: exactly one move is
    // enabled at every configuration of the walk.
    Dftc scratch(graph());
    scratch.resetClean();
    orbit_ = std::make_unique<OrbitIndex>(OrbitIndex::walk(
        scratch,
        [](const EnabledView& view) {
          SSNO_ASSERT(view.moveCount() == 1);
          return view.firstMove();
        },
        /*prefixIsMember=*/true));
  }
  return *orbit_;
}

bool Dftc::isLegitimate() {
  const OrbitIndex& orbit = orbitIndex();
  if (!tracker_) tracker_ = std::make_unique<OrbitTracker>(*this);
  return tracker_->contains(orbit);
}

double Dftc::stateBits(NodeId p) const {
  const double deg = graph().degree(p);
  const double n = graph().nodeCount();
  double bits = std::log2(deg + 1) + 1;  // S + col
  if (p != graph().root()) bits += std::log2(n) + std::log2(std::max(deg, 1.0));
  return bits;
}

}  // namespace ssno
