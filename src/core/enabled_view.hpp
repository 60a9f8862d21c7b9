// EnabledView — the bitmask-native window onto the enabled-move set.
//
// PR 2/3 made guard evaluation incremental; at n >= 1e5 the per-step
// cost was then dominated by re-materializing the O(#enabled) node-major
// Move vector just to hand it to Daemon::selectInto.  The EnabledCache
// already *maintains* the enabled relation as per-node action bitmasks;
// this view exposes that representation directly so daemons can select
// without any vector being built:
//
//   * two-level iteration — enabled nodes are a SummaryBitset, so a
//     search reads one summary word per 4096 processors and only the
//     non-zero node words: O(1 + visited words + n/4096) per search or
//     walk, 25 summary words at n = 1e5;
//   * popcount-based counts — moveCount()/enabledNodeCount() are O(1)
//     (maintained incrementally by the cache);
//   * O(1) membership — anyEnabled(p) / enabled(p, a) are bit tests;
//   * O(log n) uniform selection — kthMove() descends a Fenwick tree of
//     per-node move counts (the central daemon's draw);
//   * cyclic successor — nextPairAfter() serves the round-robin daemon
//     with mask arithmetic and at most two two-level searches (the
//     second only when the cursor wraps), O(1 + n/4096).
//
// Iteration order is exactly the node-major, ascending-action order of
// Protocol::enabledMoves(), so daemons that consume the view draw from
// the RNG in the same sequence as the reference selections over the
// move vector (tests/oracle/daemon_oracle.hpp, pinned by
// tests/daemon_test.cpp).
//
// A view is a non-owning snapshot of its EnabledCache: valid until the
// next refresh or protocol mutation.
#ifndef SSNO_CORE_ENABLED_VIEW_HPP
#define SSNO_CORE_ENABLED_VIEW_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/bitwords.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"

namespace ssno {

class EnabledView {
 public:
  EnabledView() = default;

  [[nodiscard]] int actionCount() const { return actions_; }
  [[nodiscard]] int nodeCountTotal() const { return n_; }

  /// Total enabled (processor, action) pairs — O(1).
  [[nodiscard]] int moveCount() const { return moveCount_; }
  /// Processors with at least one enabled action — O(1).
  [[nodiscard]] int enabledNodeCount() const { return nodeCount_; }
  [[nodiscard]] bool empty() const { return moveCount_ == 0; }

  /// Enabled-action bitmask of p (bit a set iff action a enabled).
  [[nodiscard]] std::uint64_t actionMask(NodeId p) const {
    return masks_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] bool anyEnabled(NodeId p) const {
    return masks_[static_cast<std::size_t>(p)] != 0;
  }
  [[nodiscard]] bool enabled(NodeId p, int action) const {
    return (masks_[static_cast<std::size_t>(p)] >> action) & 1;
  }

  /// First enabled node, or kNoNode.  Two-level search.
  [[nodiscard]] NodeId firstNode() const { return scanFrom(0); }
  /// First enabled node strictly after p, or kNoNode.
  [[nodiscard]] NodeId nextNode(NodeId p) const { return scanFrom(p + 1); }

  /// Lexicographically first enabled move.  Precondition: !empty().
  [[nodiscard]] Move firstMove() const {
    const NodeId p = firstNode();
    SSNO_ASSERT(p != kNoNode);
    return Move{p, bits::lowestBit(actionMask(p))};
  }

  /// The k-th enabled move in node-major order, k in [0, moveCount()).
  /// O(log n) via the cache's Fenwick tree of per-node move counts.
  [[nodiscard]] Move kthMove(int k) const {
    SSNO_EXPECTS(k >= 0 && k < moveCount_);
    // Find the smallest node whose prefix move count exceeds k.
    int rem = k + 1;
    int pos = 0;  // 1-based Fenwick position
    for (int bit = fenTop_; bit != 0; bit >>= 1) {
      const int next = pos + bit;
      if (next <= n_ && fen_[static_cast<std::size_t>(next)] < rem) {
        pos = next;
        rem -= fen_[static_cast<std::size_t>(next)];
      }
    }
    const NodeId p = pos;  // 0-based node index == count of nodes before it
    SSNO_ASSERT(p < n_ && actionMask(p) != 0);
    return Move{p, bits::selectBit(actionMask(p), rem - 1)};
  }

  /// The enabled pair that follows `last` in cyclic lexicographic order
  /// (the round-robin daemon's draw): first the same node's higher
  /// actions, then the next enabled node's lowest action, wrapping to
  /// firstMove().  `last` need not be enabled or even a valid pair (the
  /// round-robin sentinel precedes every real pair).
  /// Precondition: !empty().
  [[nodiscard]] Move nextPairAfter(const Move& last) const {
    if (last.node >= 0 && last.node < n_ && last.action >= 0 &&
        last.action < bits::kWordBits) {
      const std::uint64_t higher =
          actionMask(last.node) & bits::bitsAbove(last.action);
      if (higher != 0) return Move{last.node, bits::lowestBit(higher)};
    }
    const NodeId p = last.node < 0 ? firstNode() : nextNode(last.node);
    if (p != kNoNode) return Move{p, bits::lowestBit(actionMask(p))};
    return firstMove();  // wrap-around
  }

  /// Visits enabled nodes in ascending order, reading only the
  /// non-zero node words: O(#enabled + n/4096).
  template <class Fn>
  void forEachNode(Fn&& fn) const {
    nodes_->forEach([&fn](std::size_t p) { fn(static_cast<NodeId>(p)); });
  }

  /// Visits enabled moves in node-major, ascending-action order — the
  /// exact order of Protocol::enabledMoves().
  template <class Fn>
  void forEachMove(Fn&& fn) const {
    forEachNode([&](NodeId p) {
      std::uint64_t mask = actionMask(p);
      while (mask != 0) {
        fn(Move{p, bits::lowestBit(mask)});
        mask &= mask - 1;
      }
    });
  }

  /// Materializes the node-major move vector (tests — the full-scan
  /// comparison of tests/oracle/view_oracle.hpp — and daemons that score
  /// every candidate).
  void appendMoves(std::vector<Move>& out) const {
    forEachMove([&out](const Move& m) { out.push_back(m); });
  }

  /// Snapshots (node, mask) pairs for enabled nodes — the compact
  /// expansion buffer the model checker iterates while mutating the
  /// protocol (at most one entry per enabled node instead of one Move
  /// per enabled action).  Iterate a snapshot with the free
  /// forEachMove(const NodeMasks&, fn) below.
  void appendNodeMasks(
      std::vector<std::pair<NodeId, std::uint64_t>>& out) const {
    forEachNode([&](NodeId p) { out.emplace_back(p, actionMask(p)); });
  }

 private:
  friend class EnabledCache;
  EnabledView(int n, int actions, const std::uint64_t* masks,
              const bits::SummaryBitset* nodes, const std::int32_t* fen,
              int fenTop, int moveCount, int nodeCount)
      : n_(n),
        actions_(actions),
        masks_(masks),
        nodes_(nodes),
        fen_(fen),
        fenTop_(fenTop),
        moveCount_(moveCount),
        nodeCount_(nodeCount) {}

  [[nodiscard]] NodeId scanFrom(NodeId from) const {
    const long hit =
        nodes_->findFrom(static_cast<std::size_t>(from < 0 ? 0 : from));
    return hit < 0 ? kNoNode : static_cast<NodeId>(hit);
  }

  int n_ = 0;
  int actions_ = 0;
  const std::uint64_t* masks_ = nullptr;        // per-node action masks
  const bits::SummaryBitset* nodes_ = nullptr;  // enabled nodes
  const std::int32_t* fen_ = nullptr;  // Fenwick tree of per-node counts
  int fenTop_ = 0;                     // largest power of two <= n
  int moveCount_ = 0;
  int nodeCount_ = 0;
};

/// A stable (node, action-mask) snapshot of an EnabledView, as produced
/// by appendNodeMasks — the expansion buffer the model checker copies
/// before mutating the protocol invalidates the live view.
using NodeMasks = std::vector<std::pair<NodeId, std::uint64_t>>;

/// Visits a snapshot's moves in node-major, ascending-action order
/// (the Protocol::enabledMoves() order).
template <class Fn>
void forEachMove(const NodeMasks& snapshot, Fn&& fn) {
  for (const auto& [p, mask] : snapshot) {
    std::uint64_t m = mask;
    while (m != 0) {
      fn(Move{p, bits::lowestBit(m)});
      m &= m - 1;
    }
  }
}

/// Enumerates every synchronous-daemon selection of `snapshot`: each
/// enabled processor acts, choosing one of its enabled actions — the
/// cartesian product of per-node choices, visited in lexicographic
/// order (the last node's action varies fastest).  `fn` receives each
/// selection as a node-ascending span valid for the duration of the
/// call.  `scratch` is the reused backing buffer.  This is the model
/// checker's synchronous-successor move-set enumeration; at
/// model-checking scale the product is small (most processors have at
/// most one enabled action).  No calls for an empty snapshot.
template <class Fn>
void forEachSimultaneousSelection(const NodeMasks& snapshot,
                                  std::vector<Move>& scratch, Fn&& fn) {
  if (snapshot.empty()) return;
  scratch.clear();
  for (const auto& [p, mask] : snapshot)
    scratch.push_back(Move{p, bits::lowestBit(mask)});
  while (true) {
    fn(std::span<const Move>(scratch));
    // Odometer advance: bump the last node that still has a higher
    // enabled action, resetting everything after it.
    std::size_t i = snapshot.size();
    bool advanced = false;
    while (i > 0) {
      --i;
      const std::uint64_t mask = snapshot[i].second;
      const std::uint64_t higher =
          mask & bits::bitsAbove(scratch[i].action);
      if (higher != 0) {
        scratch[i].action = bits::lowestBit(higher);
        advanced = true;
        break;
      }
      scratch[i].action = bits::lowestBit(mask);
    }
    if (!advanced) return;
  }
}

}  // namespace ssno

#endif  // SSNO_CORE_ENABLED_VIEW_HPP
