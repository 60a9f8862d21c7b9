#include "core/scheduler.hpp"

#include "core/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ssno {

namespace {
// Registry handles touched only by flushStats(): per-step counts batch
// in plain Simulator members and publish every kStatFlushSteps steps,
// at run end, and at destruction (see the header's cost note).
const obs::Counter kSimSteps =
    obs::Registry::global().counter("sim_steps_total");
const obs::Counter kSimMoves =
    obs::Registry::global().counter("sim_moves_total");
constexpr std::uint64_t kStatFlushSteps = 1024;
}  // namespace

void Simulator::flushStats() {
  if (statSteps_) kSimSteps.inc(statSteps_);
  if (statMoves_) kSimMoves.inc(statMoves_);
  statSteps_ = statMoves_ = 0;
  cache_.flushStats();
}

const std::vector<Move>& Simulator::stepOnce() {
  obs::TraceSpan stepSpan("sim_step");
  const EnabledView* viewPtr = nullptr;
  {
    obs::TraceSpan refreshSpan("sim_refresh");
    viewPtr = &cache_.refreshView();
  }
  const EnabledView& enabled = *viewPtr;
  if (enabled.empty()) {
    selected_.clear();
    return selected_;
  }
  {
    obs::TraceSpan selectSpan("sim_select");
    selectSpan.arg("enabled_moves",
                   static_cast<std::uint64_t>(enabled.moveCount()));
    daemon_.selectInto(enabled, rng_, selected_);
  }
  SSNO_ASSERT(!selected_.empty());
  if (selected_.size() == 1) {
    protocol_.execute(selected_.front().node, selected_.front().action);
  } else {
    engine_.execute(selected_);
  }
  if (observer_) {
    for (const Move& m : selected_) observer_(m);
  }
  statMoves_ += selected_.size();
  if (++statSteps_ >= kStatFlushSteps) flushStats();
  stepSpan.arg("moves", selected_.size());
  accountRound(selected_);
  return selected_;
}

void Simulator::accountRound(const std::vector<Move>& executed) {
  // Both the round-opening set and the neutralization test read the
  // post-step enabled set; one cache refresh serves both, and the
  // bitmask view answers both questions without materializing moves.
  // Opening a round walks the enabled set once, O(#enabled + n/4096) on
  // the view's two-level node index.
  //
  // Steady-state cost is O(#executed + #status-changes): instead of
  // rescanning the whole pending set per step (O(n) when a round opens
  // with Θ(n) enabled processors), neutralization consumes the cache's
  // status-change feed — a pending processor not in the feed was
  // enabled at the last check and still is.  A full cache rebuild
  // (whole-configuration write) falls back to the full pending-list
  // compaction.
  const EnabledView& now = cache_.refreshView();
  const bool fullInvalidate = cache_.consumeFullInvalidate();
  if (statusObserver_)
    statusObserver_(cache_.statusChanges(), fullInvalidate, now);
  if (pending_.size() != static_cast<std::size_t>(protocol_.graph().nodeCount()))
    pending_.assign(static_cast<std::size_t>(protocol_.graph().nodeCount()),
                    false);
  auto mark = [this](NodeId p) {
    if (!pending_[static_cast<std::size_t>(p)]) {
      pending_[static_cast<std::size_t>(p)] = true;
      pendingList_.push_back(p);
      ++pendingCount_;
    }
  };
  auto serve = [this](NodeId p) {
    if (pending_[static_cast<std::size_t>(p)]) {
      pending_[static_cast<std::size_t>(p)] = false;
      --pendingCount_;
    }
  };
  if (!roundActive_) {
    // A round opens with the processors that executed or remain enabled
    // now (operational simplification of "continuously enabled since the
    // round began"; the reference simulator in tests/oracle recomputes
    // it from the whole pending set).
    for (const Move& m : executed) mark(m.node);
    now.forEachNode(mark);
    roundActive_ = pendingCount_ > 0;
    // Processors that executed have served the round; everything else
    // just marked is enabled now by construction, so no further
    // neutralization applies on the opening step.
    for (const Move& m : executed) serve(m.node);
  } else {
    for (const Move& m : executed) serve(m.node);
    if (fullInvalidate) {
      // Resynchronize: compact the pending list against the view.
      std::size_t write = 0;
      for (const NodeId p : pendingList_) {
        if (!pending_[static_cast<std::size_t>(p)]) continue;
        if (!now.anyEnabled(p)) {
          serve(p);
          continue;
        }
        pendingList_[write++] = p;
      }
      pendingList_.resize(write);
    } else {
      // Incremental: only status flips can neutralize a pending node.
      for (const NodeId p : cache_.statusChanges())
        if (pending_[static_cast<std::size_t>(p)] && !now.anyEnabled(p))
          serve(p);
    }
  }
  cache_.clearStatusChanges();
  if (roundActive_ && pendingCount_ == 0) {
    ++roundsDone_;
    roundActive_ = false;
    pendingList_.clear();  // flags are already clear (count hit zero)
  }
}

void Simulator::resetRound() {
  for (const NodeId p : pendingList_)
    pending_[static_cast<std::size_t>(p)] = false;
  pendingList_.clear();
  pendingCount_ = 0;
  roundActive_ = false;
  roundsDone_ = 0;
}

RunStats Simulator::runUntil(const Predicate& goal, StepCount maxMoves) {
  RunStats stats;
  resetRound();
  while (stats.moves < maxMoves) {
    if (goal && goal()) {
      stats.converged = true;
      break;
    }
    const std::vector<Move>& executed = stepOnce();
    if (executed.empty()) {
      stats.terminal = true;
      stats.converged = goal && goal();
      break;
    }
    stats.moves += static_cast<StepCount>(executed.size());
    ++stats.steps;
  }
  if (!stats.converged && !stats.terminal && goal && goal())
    stats.converged = true;
  stats.rounds = roundsDone_;
  flushStats();
  return stats;
}

RunStats Simulator::runToQuiescence(StepCount maxMoves) {
  return runUntil(nullptr, maxMoves);
}

}  // namespace ssno
