#include "resil/search_daemon.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/assert.hpp"
#include "obs/metrics.hpp"

namespace ssno::resil {

namespace {
const obs::Histogram kSearchNs =
    obs::Registry::global().histogram("resil_search_ns");
const obs::Counter kScoredMoves =
    obs::Registry::global().counter("resil_scored_moves_total");
const obs::Counter kRolloutMoves =
    obs::Registry::global().counter("resil_rollout_moves_total");
}  // namespace

SearchingDaemon::SearchingDaemon(Protocol& protocol, int lookahead,
                                 int fairnessBound)
    : protocol_(&protocol),
      lookahead_(lookahead < 0 ? 0 : lookahead),
      fairnessBound_(fairnessBound) {
  // Default bound 16n: the adversary's damage scales with how long it
  // may starve a move, and 16n measures ~3.4x the random-daemon move
  // count on the DFTNO ring presets — past the 2x certification floor
  // with margin, while still converging in O(bound * corrections)
  // moves, far inside any realistic budget.
  if (fairnessBound_ <= 0)
    fairnessBound_ = 16 * protocol.graph().nodeCount();
  if (fairnessBound_ < 1) fairnessBound_ = 1;
}

std::string SearchingDaemon::name() const {
  if (lookahead_ == 0) return "search-greedy";
  return "search-lookahead:" + std::to_string(lookahead_);
}

void SearchingDaemon::selectInto(const EnabledView& enabled, Rng& /*rng*/,
                                 std::vector<Move>& out) {
  viewMoves_.clear();
  enabled.appendMoves(viewMoves_);
  choose(viewMoves_, out);
}

void SearchingDaemon::choose(std::span<const Move> enabled,
                             std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  const obs::ScopedTimer searchTimer(kSearchNs);
  kScoredMoves.inc(enabled.size());
  const auto actions = static_cast<std::size_t>(protocol_->actionCount());
  const auto slots =
      static_cast<std::size_t>(protocol_->graph().nodeCount()) * actions;
  if (age_.size() != slots) age_.assign(slots, 0);
  const auto slot = [actions](const Move& m) {
    return static_cast<std::size_t>(m.node) * actions +
           static_cast<std::size_t>(m.action);
  };

  // Age pass: every enabled MOVE has been waiting one more selection to
  // be executed.  Ages are per (node, action), not per node: serving a
  // node through one action must not launder the starvation of another
  // (DFTNO's adversarial livelock rides exactly that — the greedy
  // daemon keeps every node busy with token moves while the
  // continuously-enabled EdgeLabel corrections never run).  The age
  // also deliberately survives enabledness flicker (it only resets when
  // the move executes), so briefly neutralizing a victim through a
  // neighbor's move cannot reset its counter.
  for (const Move& m : enabled) ++age_[slot(m)];

  // Fairness override: if some enabled move has waited fairnessBound_
  // selections, it executes NOW (most starved first; node-major first
  // on ties) — any scheduler that keeps postponing it stops being
  // weakly fair, since these ages dominate continuously-enabled time.
  Move forced{kNoNode, -1};
  StepCount forcedAge = static_cast<StepCount>(fairnessBound_) - 1;
  for (const Move& m : enabled) {
    if (age_[slot(m)] > forcedAge) {
      forcedAge = age_[slot(m)];
      forced = m;
    }
  }

  Move best = forced;
  if (best.node == kNoNode) {
    if (lookahead_ > 0) saveConfiguration();
    double bestScore = 0.0;
    for (const Move& m : enabled) {
      const double s = lookahead_ > 0 ? scoreLookahead(m) : scoreGreedy(m);
      if (best.node == kNoNode || s > bestScore) {
        best = m;
        bestScore = s;
      }
    }
  }
  SSNO_ASSERT(best.node != kNoNode);

  age_[slot(best)] = 0;
  schedule_.push_back(best);
  out.clear();
  out.push_back(best);
}

double SearchingDaemon::scoreGreedy(const Move& m) {
  // Statements write only the actor's own variables, so restoring the
  // actor's raw vector is a bit-exact undo of the tentative execution.
  const std::vector<int> saved = protocol_->rawNode(m.node);
  protocol_->execute(m.node, m.action);
  const double score = protocol_->potentialHint();
  protocol_->setRawNode(m.node, saved);
  return score;
}

double SearchingDaemon::scoreLookahead(const Move& m) {
  // Precondition: saveConfiguration() ran since the last real mutation.
  protocol_->execute(m.node, m.action);
  for (int depth = 0; depth < lookahead_; ++depth) {
    rollout_ = protocol_->enabledMoves();
    if (rollout_.empty()) break;
    kRolloutMoves.inc(rollout_.size());
    Move inner{kNoNode, -1};
    double innerScore = 0.0;
    for (const Move& c : rollout_) {
      const double s = scoreGreedy(c);
      if (inner.node == kNoNode || s > innerScore) {
        inner = c;
        innerScore = s;
      }
    }
    protocol_->execute(inner.node, inner.action);
  }
  const double score = protocol_->potentialHint();
  restoreConfiguration();
  return score;
}

void SearchingDaemon::saveConfiguration() {
  const std::span<StateArena* const> arenas = protocol_->arenas();
  scratch_.resize(arenas.size());
  const auto n = static_cast<std::size_t>(protocol_->graph().nodeCount());
  if (allNodes_.size() != n) {
    allNodes_.resize(n);
    std::iota(allNodes_.begin(), allNodes_.end(), 0);
  }
  for (std::size_t i = 0; i < arenas.size(); ++i)
    arenas[i]->snapshotNodes(allNodes_, scratch_[i]);
}

void SearchingDaemon::restoreConfiguration() {
  const std::span<StateArena* const> arenas = protocol_->arenas();
  for (std::size_t i = 0; i < arenas.size(); ++i)
    arenas[i]->restoreNodes(allNodes_, scratch_[i]);
  // Arena restores bypass the mutation wrappers; re-dirty everything
  // the rollout may have touched (deduplicated by the dirty flags).
  for (const NodeId p : allNodes_) protocol_->noteExternalWrite(p);
}

void ReplayDaemon::selectInto(const EnabledView& enabled, Rng& /*rng*/,
                              std::vector<Move>& out) {
  if (cursor_ >= schedule_.size())
    throw std::runtime_error("replay daemon: schedule exhausted at step " +
                             std::to_string(cursor_));
  const Move m = schedule_[cursor_];
  if (!enabled.enabled(m.node, m.action))
    throw std::runtime_error(
        "replay daemon: scheduled move (" + std::to_string(m.node) + "," +
        std::to_string(m.action) + ") not enabled at step " +
        std::to_string(cursor_) + " — replay diverged");
  ++cursor_;
  out.clear();
  out.push_back(m);
}

}  // namespace ssno::resil
