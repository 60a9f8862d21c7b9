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
  installHooks();
}

void Dftno::installHooks() {
  TokenHooks hooks;
  // Nodelabel at the root happens when it generates the token.
  hooks.onRoundStart = [this](NodeId r) {
    eta_[r] = 0;
    max_[r] = 0;
  };
  // Nodelabel at a non-root: next free name, after consulting the parent.
  hooks.onForward = [this](NodeId p, NodeId parent) {
    eta_[p] = (max_[parent] + 1) % modulus();
    max_[p] = eta_[p];
  };
  // UpdateMax: the backtracked token carries the child's maximum.
  hooks.onBacktrack = [this](NodeId p, NodeId child) {
    max_[p] = max_[child];
  };
  dftc_.setHooks(std::move(hooks));
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

void Dftno::doExecute(NodeId p, int action) {
  SSNO_EXPECTS(enabled(p, action));
  if (action < Dftc::kActionCount) {
    dftc_.execute(p, action);  // hooks apply Nodelabel/UpdateMax atomically
    return;
  }
  for (Port l = 0; l < graph().degree(p); ++l)
    pi_.at(p, l) =
        chordal(p, graph().neighborAt(p, l));
}

bool Dftno::doExecuteSimultaneous(std::span<const Move> moves) {
  // Phase 1: every outcome — substrate post-state and the composed
  // Nodelabel/UpdateMax macro values — is computed against the
  // untouched pre-step configuration.  Two moves commit early, inside
  // phase 1, because doing so cannot be observed by any other move's
  // compute:
  //   * EdgeLabel writes only π, and no phase-1 computation reads π
  //     (the corrected rows derive from η alone, substrate outcomes
  //     from {s, col, d, par, η, Max}), so the corrected row goes
  //     straight into the live column;
  //   * Error's entire outcome is s := idle with everything else
  //     unchanged, recorded as a one-store commit for phase 2 without
  //     the generic SimOutcome round-trip.
  simSteps_.clear();
  simSteps_.reserve(moves.size());
  const int n = modulus();
  for (const Move& m : moves) {
    // Enabledness is the caller's precondition (see Dftc note) —
    // re-deriving it per move is Debug-only.
    SSNO_DBG_ASSERT(enabled(m.node, m.action));
    const NodeId p = m.node;
    SimStep step;
    if (m.action == Dftc::kError) {
      step.substrate = SimStep::kIdleOnly;
    } else if (m.action < Dftc::kActionCount) {
      step.substrate = SimStep::kSubstrate;
      step.eta = eta_[p];
      step.max = max_[p];
      const Dftc::SimOutcome sub = dftc_.computeSimultaneous(p, m.action);
      step.s = sub.s;
      step.col = sub.col;
      step.d = sub.d;
      step.par = sub.par;
      switch (sub.event) {
        case Dftc::SimOutcome::Event::kRoundStart:
          step.eta = 0;
          step.max = 0;
          break;
        case Dftc::SimOutcome::Event::kForward:
          step.eta = (max_[sub.peer] + 1) % n;
          step.max = step.eta;
          break;
        case Dftc::SimOutcome::Event::kBacktrack:
          step.max = max_[sub.peer];
          break;
        case Dftc::SimOutcome::Event::kNone:
          break;
      }
    } else {
      auto row = pi_.row(p);
      chordalRowFill(row.data(), graph().neighbors(p).data(),
                     eta_.data().data(), eta_[p], graph().degree(p), n);
      step.substrate = SimStep::kCommitted;
    }
    simSteps_.push_back(step);
  }
  // Phase 2: commit.
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const NodeId p = moves[i].node;
    const SimStep& step = simSteps_[i];
    if (step.substrate == SimStep::kSubstrate) {
      dftc_.commitSimultaneous(
          p, Dftc::SimOutcome{step.s, step.col, step.d, step.par});
      eta_[p] = step.eta;
      max_[p] = step.max;
    } else if (step.substrate == SimStep::kIdleOnly) {
      dftc_.commitIdle(p);
    }
  }
  return true;
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
