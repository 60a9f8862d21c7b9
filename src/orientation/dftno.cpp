#include "orientation/dftno.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/assert.hpp"
#include "orientation/chordal_kernel.hpp"

namespace ssno {

Dftno::Dftno(Graph graph, EdgeLabelGuard guard)
    : Protocol(graph),
      dftc_(graph),
      guard_(guard),
      arena_(this->graph(), DigitOrder::kMostFirst),
      eta_(arena_.nodeColumn({.base = modulus()})),
      max_(arena_.nodeColumn({.base = modulus()})),
      pi_(arena_.portColumn({.base = modulus()})) {
  addArenas(dftc_);
  addArena(arena_);
}

std::string Dftno::actionName(int action) const {
  if (action < Dftc::kActionCount) return dftc_.actionName(action);
  return "EdgeLabel";
}

bool Dftno::invalidEdgeLabel(NodeId p) const {
  for (Port l = 0; l < graph().degree(p); ++l)
    if (pi_.at(p, l) !=
        chordal(p, graph().neighborAt(p, l)))
      return true;
  return false;
}

bool Dftno::enabled(NodeId p, int action) const {
  if (action < Dftc::kActionCount) return dftc_.enabled(p, action);
  if (action != kEdgeLabel) return false;
  // Paper: ¬Forward(p) ∧ ¬Backtrack(p) ∧ InvalidEdgelabel(p) — only a
  // processor not currently involved with the token corrects its labels.
  // The default kContinuous guard drops the token conjunct so the action
  // stays continuously enabled (see EdgeLabelGuard).
  if (guard_ == EdgeLabelGuard::kPaperFaithful && dftc_.holdsToken(p))
    return false;
  return invalidEdgeLabel(p);
}

void Dftno::evaluateGuards(std::span<const NodeId> nodes,
                           std::uint64_t* masks) const {
  dftc_.evaluateGuards(nodes, masks);  // substrate bits 0..5
  const int n = modulus();
  const int* eta = eta_.data().data();
  const int* pi = pi_.data().data();
  const Graph& g = graph();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId p = nodes[i];
    // ¬Token(p) ⇔ no substrate action enabled ⇔ masks[i] == 0 here.
    if (guard_ == EdgeLabelGuard::kPaperFaithful && masks[i] != 0) continue;
    if (chordalRowMismatch(pi + g.portBase(p), g.neighbors(p).data(), eta,
                           eta[p], g.degree(p), n))
      masks[i] |= std::uint64_t{1} << kEdgeLabel;
  }
}

// Forced inline: the dense step calls compose and commit once per move,
// and an out-of-line call there costs a few percent of the step rate.
[[gnu::always_inline]] inline Dftno::Composed Dftno::compose(NodeId p,
                                                             int action) {
  if (action == kEdgeLabel) {
    // Edgelabel writes π alone, and no composition reads π (rows derive
    // from η, substrate outcomes from {s, col, d, par, η, Max}), so the
    // corrected row goes straight into the live column.
    chordalRowFill(pi_.row(p).data(), graph().neighbors(p).data(),
                   eta_.data().data(), eta_[p], graph().degree(p),
                   modulus());
    return Composed{};
  }
  const Dftc::Outcome o = dftc_.outcome(p, action);
  Composed c{.s = o.s, .col = o.col, .d = o.d, .par = o.par,
             .eta = eta_[p], .max = max_[p], .substrate = true};
  switch (o.event) {
    case Dftc::Outcome::Event::kRoundStart:
      // Nodelabel at the root, which generates the token.
      c.eta = 0;
      c.max = 0;
      break;
    case Dftc::Outcome::Event::kForward:
      // Nodelabel at a non-root: the next free name after its parent's
      // maximum.
      c.eta = (max_[o.peer] + 1) % modulus();
      c.max = c.eta;
      break;
    case Dftc::Outcome::Event::kBacktrack:
      // UpdateMax: the token returns with the finished child's maximum.
      c.max = max_[o.peer];
      break;
    case Dftc::Outcome::Event::kNone:
      break;
  }
  return c;
}

[[gnu::always_inline]] inline void Dftno::commit(NodeId p,
                                                 const Composed& c) {
  if (!c.substrate) return;
  dftc_.commit(p, Dftc::Outcome{.s = c.s, .col = c.col, .d = c.d,
                                .par = c.par});
  eta_[p] = c.eta;
  max_[p] = c.max;
}

void Dftno::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  commit(p, compose(p, action));
}

bool Dftno::doExecuteSimultaneous(std::span<const Move> moves) {
  // Phase 1 composes every move against the untouched pre-step
  // configuration (an EdgeLabel row is written already, which no other
  // composition can observe); phase 2 commits.
  batch_.clear();
  batch_.reserve(moves.size());
  for (const Move& m : moves) {
    // Enabledness is the caller's precondition (see Dftc note) —
    // re-deriving it per move is Debug-only.
    SSNO_DBG_ASSERT(enabled(m.node, m.action));
    batch_.push_back(compose(m.node, m.action));
  }
  for (std::size_t i = 0; i < moves.size(); ++i)
    commit(moves[i].node, batch_[i]);
  return true;
}

void Dftno::dirtyAfterWrite(NodeId p, int action) {
  if (action == kEdgeLabel)
    dirtyNode(p);
  else
    dirtyNeighborhood(p);
}

std::string Dftno::dumpNode(NodeId p) const {
  std::ostringstream out;
  out << dftc_.dumpNode(p) << " eta=" << eta_[p] << " max=" << max_[p]
      << " pi=[";
  for (Port l = 0; l < graph().degree(p); ++l) {
    if (l) out << ' ';
    out << pi_.at(p, l);
  }
  out << ']';
  return out.str();
}

Orientation Dftno::orientation() const {
  Orientation o;
  o.graph = &graph();
  o.modulus = modulus();
  o.name = eta_.data();
  o.label = pi_.data();
  return o;
}

bool Dftno::satisfiesSpecNow() const {
  const Orientation o = orientation();
  return satisfiesSpec(o);
}

void Dftno::resetClean() {
  dftc_.resetClean();
  eta_.fill(0);
  max_.fill(0);
  pi_.fill(0);
  noteWriteAll();
}

OrbitTracker& Dftno::tracker() {
  if (!tracker_) tracker_ = std::make_unique<OrbitTracker>(*this);
  return *tracker_;
}

bool Dftno::substrateLegitimate() {
  const OrbitIndex& orbit = dftc_.orbitIndex();
  return tracker().contains(orbit);
}

const OrbitIndex& Dftno::orbitIndex() {
  if (!orbit_) {
    // From a clean substrate boundary with a zeroed overlay, run a
    // deterministic fair schedule — the first processor with an enabled
    // edge-label correction, else the first enabled move (the unique
    // token move) — until a configuration repeats; the repeating cycle
    // is the steady-state orbit.
    Dftno scratch(graph(), guard_);
    scratch.resetClean();
    orbit_ = std::make_unique<OrbitIndex>(OrbitIndex::walk(
        scratch,
        [](const EnabledView& view) {
          for (NodeId p = view.firstNode(); p != kNoNode; p = view.nextNode(p))
            if (view.enabled(p, kEdgeLabel)) return Move{p, kEdgeLabel};
          return view.firstMove();
        },
        /*prefixIsMember=*/false));
  }
  return *orbit_;
}

bool Dftno::isLegitimate() {
  const OrbitIndex& orbit = orbitIndex();
  return tracker().contains(orbit);
}

double Dftno::stateBits(NodeId p) const {
  return dftc_.stateBits(p) + orientationBits(p);
}

double Dftno::orientationBits(NodeId p) const {
  const double logN = std::log2(static_cast<double>(modulus()));
  return (2.0 + graph().degree(p)) * logN;  // η + Max + Δp π-entries
}

}  // namespace ssno
