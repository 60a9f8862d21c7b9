#include "core/enabled_cache.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "obs/metrics.hpp"

namespace ssno {

namespace {
// Registry handles touched only by flushStats(): per-refresh telemetry
// accumulates in plain EnabledCache members (even a relaxed atomic per
// working refresh is a measurable fraction of a 3M moves/s hot loop)
// and is published in batches of kStatFlushRefreshes.
const obs::Counter kGuardRefreshes =
    obs::Registry::global().counter("sim_guard_refresh_total");
const obs::Counter kGuardEvals =
    obs::Registry::global().counter("sim_guard_evals_total");
const obs::Counter kCacheRebuilds =
    obs::Registry::global().counter("sim_cache_rebuilds_total");
constexpr std::uint64_t kStatFlushRefreshes = 1024;
}  // namespace

void EnabledCache::flushStats() {
  if (statRefreshes_) kGuardRefreshes.inc(statRefreshes_);
  if (statRebuilds_) kCacheRebuilds.inc(statRebuilds_);
  if (statEvals_) kGuardEvals.inc(statEvals_);
  flushedEvals_ += statEvals_;
  statRefreshes_ = statRebuilds_ = statEvals_ = 0;
}

EnabledCache::EnabledCache(Protocol& protocol)
    : protocol_(protocol),
      n_(protocol.graph().nodeCount()),
      actions_(protocol.actionCount()) {
  SSNO_EXPECTS(actions_ >= 1 && actions_ <= 64);
  mask_.assign(static_cast<std::size_t>(n_), 0);
  nodeBits_.resize(static_cast<std::size_t>(n_));
  fen_.assign(static_cast<std::size_t>(n_) + 1, 0);
  fenTop_ = 1;
  while (fenTop_ * 2 <= n_) fenTop_ *= 2;
  makeView();
}

void EnabledCache::rebuildFenwick() {
  // Linear build: seed each slot with its node's move count, then fold
  // every slot into its Fenwick parent.
  for (NodeId p = 0; p < n_; ++p)
    fen_[static_cast<std::size_t>(p) + 1] =
        bits::popcount(mask_[static_cast<std::size_t>(p)]);
  for (int i = 1; i <= n_; ++i) {
    const int j = i + (i & -i);
    if (j <= n_) fen_[static_cast<std::size_t>(j)] +=
        fen_[static_cast<std::size_t>(i)];
  }
}

void EnabledCache::fenwickAdd(NodeId p, int delta) {
  for (int i = p + 1; i <= n_; i += i & -i)
    fen_[static_cast<std::size_t>(i)] += delta;
}

void EnabledCache::rebuildAll() {
  statEvals_ += static_cast<std::uint64_t>(n_) *
                static_cast<std::uint64_t>(actions_);
  if (++statRebuilds_ >= kStatFlushRefreshes) flushStats();
  if (track_changes_) {
    full_invalidate_ = true;
    changed_.clear();
  }
  nodeBits_.reset();
  moveCount_ = 0;
  nodeCount_ = 0;
  // Full rescans batch the identity node list straight into mask_ —
  // one evaluateGuards call instead of n per-node guard loops.
  if (allNodes_.empty() && n_ > 0) {
    allNodes_.resize(static_cast<std::size_t>(n_));
    for (NodeId p = 0; p < n_; ++p)
      allNodes_[static_cast<std::size_t>(p)] = p;
  }
  protocol_.evaluateGuards(allNodes_, mask_.data());
  for (NodeId p = 0; p < n_; ++p) {
    const std::uint64_t mask = mask_[static_cast<std::size_t>(p)];
    if (mask != 0) {
      nodeBits_.set(static_cast<std::size_t>(p));
      ++nodeCount_;
      moveCount_ += bits::popcount(mask);
    }
  }
  rebuildFenwick();
}

void EnabledCache::applyMask(NodeId p, std::uint64_t mask) {
  auto& cached = mask_[static_cast<std::size_t>(p)];
  if (mask == cached) return;
  const int delta = bits::popcount(mask) - bits::popcount(cached);
  const bool was = cached != 0;
  const bool is = mask != 0;
  cached = mask;
  if (was != is) {
    if (is) {
      nodeBits_.set(static_cast<std::size_t>(p));
      ++nodeCount_;
    } else {
      nodeBits_.clear(static_cast<std::size_t>(p));
      --nodeCount_;
    }
    if (track_changes_ && !full_invalidate_) changed_.push_back(p);
  }
  if (delta != 0) {
    moveCount_ += delta;
    if (!deferFenwick_) fenwickAdd(p, delta);
  }
}

void EnabledCache::makeView() {
  view_ = EnabledView(n_, actions_, mask_.data(), &nodeBits_, fen_.data(),
                      fenTop_, moveCount_, nodeCount_);
}

const EnabledView& EnabledCache::refreshView() {
  if (!primed_ || protocol_.allDirty()) {
    rebuildAll();
    primed_ = true;
  } else {
    // Feed the dirty set through the protocol's batch evaluator in one
    // node-sorted batch (the evaluateGuards ordering contract), then
    // patch the representation mask by mask.
    const std::vector<NodeId>& dirtyNodes = protocol_.dirtyNodes();
    if (!dirtyNodes.empty()) {
      // Node-sorted batch (the evaluateGuards ordering contract).  A
      // dense dirty set — a synchronous step dirties nearly every
      // processor — recovers the order from the dirty flags with one
      // sequential scan; sorting the insertion-ordered list would cost
      // O(n log n) per step and dominates the refresh at large n.
      const std::size_t n = protocol_.dirtyFlags().size();
      const bool dense = dirtyNodes.size() >= n / 16;
      if (dense) {
        const std::uint8_t* flags = protocol_.dirtyFlags().data();
        batch_.clear();
        batch_.reserve(dirtyNodes.size());
        for (std::size_t p = 0; p < n; ++p)
          if (flags[p]) batch_.push_back(static_cast<NodeId>(p));
      } else {
        batch_.assign(dirtyNodes.begin(), dirtyNodes.end());
        std::sort(batch_.begin(), batch_.end());
      }
      batchMasks_.resize(batch_.size());
      protocol_.evaluateGuards(batch_, batchMasks_.data());
      // Dense patches rebuild the Fenwick tree once in O(n) instead of
      // paying an O(log n) scattered update per changed node.
      deferFenwick_ = dense;
      for (std::size_t i = 0; i < batch_.size(); ++i)
        applyMask(batch_[i], batchMasks_[i]);
      if (dense) {
        deferFenwick_ = false;
        rebuildFenwick();
      }
      statEvals_ += static_cast<std::uint64_t>(batch_.size()) *
                    static_cast<std::uint64_t>(actions_);
      if (++statRefreshes_ >= kStatFlushRefreshes) flushStats();
    }
  }
  protocol_.clearDirty();
  makeView();
  return view_;
}

}  // namespace ssno
