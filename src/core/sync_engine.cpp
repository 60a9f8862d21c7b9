#include "core/sync_engine.hpp"

#include <algorithm>
#include <functional>

#include "core/assert.hpp"
#include "obs/metrics.hpp"

namespace ssno {

namespace {
// All increments are batched per simultaneous step (O(1) atomics per
// execute call), never per node.
const obs::Counter kSyncSteps =
    obs::Registry::global().counter("sync_steps_total");
const obs::Counter kSyncSnapshotNodes =
    obs::Registry::global().counter("sync_snapshot_nodes_total");
const obs::Counter kSyncRollbacks =
    obs::Registry::global().counter("sync_rollback_nodes_total");
const obs::Counter kSyncUndos =
    obs::Registry::global().counter("sync_undo_total");
}  // namespace

SimultaneousEngine::SimultaneousEngine(Protocol& protocol)
    : protocol_(protocol), arenas_(protocol.arenas()) {
  pre_.resize(arenas_.size());
  postData_.resize(arenas_.size());
}

void SimultaneousEngine::execute(std::span<const Move> moves) {
  SSNO_ASSERT(!moves.empty());
  SSNO_DBG_ASSERT(std::ranges::adjacent_find(  // node-ascending, distinct
                      moves, std::ranges::greater_equal{}, &Move::node) ==
                  moves.end());
  if (protocol_.guardsAreNeighborhoodLocal())
    executeColumnar(moves);
  else
    executeColumnarFull(moves);
}

void SimultaneousEngine::capturePost(NodeId p) {
  for (std::size_t a = 0; a < arenas_.size(); ++a) {
    postOff_.push_back(postData_[a].size());
    arenas_[a]->appendRawNode(p, postData_[a]);
  }
  captured_.push_back(p);
}

void SimultaneousEngine::restoreCapture(std::size_t ci) {
  const NodeId p = captured_[ci];
  const std::size_t arenaCount = arenas_.size();
  for (std::size_t a = 0; a < arenaCount; ++a) {
    const std::size_t start = postOff_[ci * arenaCount + a];
    const std::size_t end = ci + 1 < captured_.size()
                                ? postOff_[(ci + 1) * arenaCount + a]
                                : postData_[a].size();
    arenas_[a]->setRawNode(
        p, std::span<const int>(postData_[a]).subspan(start, end - start));
  }
}

void SimultaneousEngine::executeColumnar(std::span<const Move> moves) {
  const Graph& g = protocol_.graph();
  const std::size_t k = moves.size();
  const auto n = static_cast<std::size_t>(g.nodeCount());
  actors_.clear();
  for (const Move& m : moves) actors_.push_back(m.node);
  kSyncSteps.inc();
  const auto snapshotActors = [&] {
    for (std::size_t a = 0; a < arenas_.size(); ++a) {
      arenas_[a]->snapshotNodes(actors_, pre_[a]);
      postData_[a].clear();
    }
    postOff_.clear();
    captured_.clear();
    kSyncSnapshotNodes.inc(k);
  };
  // Batched fast path: the protocol executes the whole step itself with
  // two-phase compute/commit semantics (every move reads the pre-step
  // configuration), so no neighborhood rollbacks or post captures are
  // needed.  The actor snapshot exists only for undo() here — skipped
  // entirely when the owner opted out (see setUndoCapture); a false
  // return performed no writes, so snapshotting after the attempt is
  // still pre-step.
  if (undoCapture_) snapshotActors();
  protocol_.beginSimultaneousStep();
  if (protocol_.executeSimultaneousBatch(moves)) {
    protocol_.endSimultaneousStep();
    undoable_ = undoCapture_;
    return;
  }
  // Rollback path: pre_ is read for the neighborhood rollbacks, so the
  // snapshot is required regardless of undo capture.
  if (!undoCapture_) snapshotActors();
  if (actorBits_.size() != n) actorBits_.resize(n);
  if (actorSlot_.size() != n) actorSlot_.assign(n, -1);
  for (std::size_t j = 0; j < k; ++j) {
    actorBits_.set(static_cast<std::size_t>(actors_[j]));
    actorSlot_[static_cast<std::size_t>(actors_[j])] =
        static_cast<std::int32_t>(j);
  }
  capturedFlag_.assign(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId p = moves[i].node;
    // Roll already-executed actors in N(p) back to their pre-step state
    // (ascending order makes "executed before p" just q < p; membership
    // is one bit probe).  The first rollback of an actor saves its post
    // state for the end-of-step re-apply.
    for (const NodeId q : g.neighbors(p)) {
      if (q < p && actorBits_.test(static_cast<std::size_t>(q))) {
        const auto j = static_cast<std::size_t>(
            actorSlot_[static_cast<std::size_t>(q)]);
        if (!capturedFlag_[j]) {
          capturedFlag_[j] = 1;
          capturePost(q);
        }
        for (std::size_t a = 0; a < arenas_.size(); ++a)
          arenas_[a]->restoreNode(j, q, pre_[a]);
      }
    }
    SSNO_DBG_ASSERT(protocol_.enabled(p, moves[i].action));
    protocol_.execute(p, moves[i].action);
  }
  // Every captured actor was rolled back after it executed and never
  // re-executed, so it currently holds its pre state: re-apply the post
  // captures.  Uncaptured actors already hold their post state.
  for (std::size_t ci = 0; ci < captured_.size(); ++ci) restoreCapture(ci);
  kSyncRollbacks.inc(captured_.size());
  protocol_.endSimultaneousStep();

  for (std::size_t j = 0; j < k; ++j) {
    actorBits_.clear(static_cast<std::size_t>(actors_[j]));
    actorSlot_[static_cast<std::size_t>(actors_[j])] = -1;
  }
  undoable_ = true;
}

void SimultaneousEngine::executeColumnarFull(std::span<const Move> moves) {
  // Non-neighborhood-local guards: every move must read the full
  // pre-step configuration.  Statements still write only their own
  // processor's variables, so it suffices to *write-log* the acting
  // set: snapshot the actors once, and after each move log the actor's
  // post state and put its pre state back — the configuration is
  // inductively pre-step before every execution — then re-apply the
  // logged post states at the end of the step.  Cost is O(k·state)
  // instead of the former O(n·columns) full-configuration snapshot
  // plus an O(n·columns) restore before every single move.
  const std::size_t k = moves.size();
  actors_.clear();
  for (const Move& m : moves) actors_.push_back(m.node);
  for (std::size_t a = 0; a < arenas_.size(); ++a) {
    arenas_[a]->snapshotNodes(actors_, pre_[a]);
    postData_[a].clear();
  }
  postOff_.clear();
  captured_.clear();
  kSyncSteps.inc();
  kSyncSnapshotNodes.inc(k);

  protocol_.beginSimultaneousStep();
  for (std::size_t j = 0; j < k; ++j) {
    const Move& m = moves[j];
    SSNO_DBG_ASSERT(protocol_.enabled(m.node, m.action));
    protocol_.execute(m.node, m.action);
    capturePost(m.node);
    for (std::size_t a = 0; a < arenas_.size(); ++a)
      arenas_[a]->restoreNode(j, m.node, pre_[a]);
  }
  for (std::size_t ci = 0; ci < captured_.size(); ++ci) restoreCapture(ci);
  kSyncRollbacks.inc(captured_.size());
  protocol_.endSimultaneousStep();
  undoable_ = true;  // undo() restores the actors from pre_
}

void SimultaneousEngine::undo() {
  kSyncUndos.inc();
  SSNO_ASSERT(undoable_);
  // Covers the neighborhood-local, batched, and full-configuration
  // paths alike: statements write only their own processor's
  // variables, so restoring the acting set from pre_ rewinds the whole
  // step.
  for (std::size_t a = 0; a < arenas_.size(); ++a)
    arenas_[a]->restoreNodes(actors_, pre_[a]);
  for (const NodeId p : actors_) protocol_.noteExternalWrite(p);
  undoable_ = false;
}

}  // namespace ssno
