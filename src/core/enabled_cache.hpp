// EnabledCache — incremental maintenance of the enabled-move set.
//
// Protocol::enabledMoves() rescans all n processors × all actions; the
// simulator needs the enabled set twice per step, so a run of m moves
// costs O(m·n·Δ·actions) guard evaluations even though a guarded-command
// move at p can only change the guards of p ∪ N(p).  This cache consumes
// the Protocol's dirty set instead: a refresh re-evaluates only dirty
// processors' guards and patches the cached set, dropping the
// steady-state per-step cost to O(Δ²·actions) guard evaluations, and
// reuses its buffers so steady-state refreshes perform no allocations.
// A move's dirty region is Protocol::dirtyAfterWrite(p, action): N[p],
// or only the guards that read what its statement wrote — p alone after
// a DFTNO or STNO EdgeLabel move, p and its tree parent after an STNO
// Weight move.
//
// The cache's native representation is bitmask SoA: one action mask per
// node, a two-level SummaryBitset of enabled nodes (a summary bit per
// non-zero node word, kept in the status-flip branch of each patch and
// in the rebuild's node loop, so it costs no pass of its own),
// popcount-maintained move/node totals, and a Fenwick tree of per-node
// move counts.  refreshView() exposes it as an EnabledView; daemons
// select directly on the masks and nothing proportional to #enabled is
// materialized.  tests/enabled_cache_test.cpp checks all of it against
// Protocol::enabledMoves() after every step of its protocol × daemon ×
// topology matrix (oracle::expectViewMatchesScan in
// tests/oracle/view_oracle.hpp): the listed moves, both totals, the
// node index and every k-th move of the Fenwick descent.
//
// Exactly one EnabledCache may drain a Protocol at a time (draining
// clears the dirty set); the Simulator owns one per run.
#ifndef SSNO_CORE_ENABLED_CACHE_HPP
#define SSNO_CORE_ENABLED_CACHE_HPP

#include <cstdint>
#include <vector>

#include "core/bitwords.hpp"
#include "core/enabled_view.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"

namespace ssno {

class EnabledCache {
 public:
  explicit EnabledCache(Protocol& protocol);
  // The view points into this object.
  EnabledCache(const EnabledCache&) = delete;
  EnabledCache& operator=(const EnabledCache&) = delete;

  /// Brings the bitmask representation up to date with the protocol's
  /// dirty set and returns a view of it (valid until the next
  /// refresh/mutation).  No move vector is built.
  [[nodiscard]] const EnabledView& refreshView();

  /// View of the representation as of the last refresh (no update).
  [[nodiscard]] const EnabledView& view() const { return view_; }

  /// ---- Enabled-status change feed (single consumer) -----------------
  /// When enabled, refreshes record every node whose ANY-action-enabled
  /// status flipped, letting a consumer (the Simulator's round
  /// accounting) react to O(#changed) nodes instead of rescanning its
  /// whole working set per step.  A full rebuild (first refresh or a
  /// whole-configuration write) is reported via fullInvalidate instead of
  /// per-node entries.  Off by default so checker-style consumers that
  /// never drain the feed pay nothing.
  void setTrackStatusChanges(bool on) {
    track_changes_ = on;
    changed_.clear();
    full_invalidate_ = true;  // force the consumer to resynchronize
  }
  /// Nodes whose status flipped since the last clearStatusChanges()
  /// (may contain duplicates; meaningless after a full invalidate).
  [[nodiscard]] const std::vector<NodeId>& statusChanges() const {
    return changed_;
  }
  /// True if any refresh since the last consume rebuilt everything.
  [[nodiscard]] bool consumeFullInvalidate() {
    const bool was = full_invalidate_;
    full_invalidate_ = false;
    return was;
  }
  void clearStatusChanges() { changed_.clear(); }

  /// Publishes locally accumulated guard/refresh telemetry to the obs
  /// registry.  Refresh counts are batched in plain members (a relaxed
  /// atomic per working refresh is measurable at 3M moves/s) and flushed
  /// every ~1K refreshes, at destruction, and whenever the owner calls
  /// this — so live introspection lags by at most the batch window.
  void flushStats();

  /// Guard evaluations since construction (node × action, the
  /// sim_guard_evals_total convention), flushed or not.
  [[nodiscard]] std::uint64_t guardEvals() const {
    return flushedEvals_ + statEvals_;
  }

  ~EnabledCache() { flushStats(); }

 private:
  void rebuildAll();
  void applyMask(NodeId p, std::uint64_t mask);
  void rebuildFenwick();
  void fenwickAdd(NodeId p, int delta);
  void makeView();

  Protocol& protocol_;
  int n_;
  int actions_;
  std::vector<std::uint64_t> mask_;  // enabled-action bitmask per node
  bits::SummaryBitset nodeBits_;     // bit p set iff mask_[p] != 0
  std::vector<std::int32_t> fen_;    // Fenwick over per-node move counts
  int fenTop_ = 0;                   // largest power of two <= n
  int moveCount_ = 0;
  int nodeCount_ = 0;
  EnabledView view_;
  bool primed_ = false;  // first refresh always rescans everything
  bool deferFenwick_ = false;  // dense refresh: one O(n) rebuild instead
  bool track_changes_ = false;
  bool full_invalidate_ = true;
  std::vector<NodeId> changed_;  // status flips since last clear

  // Reused batch-evaluation buffers (no allocations in steady state).
  std::vector<NodeId> batch_;            // sorted dirty nodes per refresh
  std::vector<std::uint64_t> batchMasks_;
  std::vector<NodeId> allNodes_;         // identity list for rebuildAll

  // Telemetry accumulators (flushed to obs counters by flushStats()).
  std::uint64_t statRefreshes_ = 0;
  std::uint64_t statRebuilds_ = 0;
  std::uint64_t statEvals_ = 0;
  std::uint64_t flushedEvals_ = 0;  // statEvals_ already published
};

}  // namespace ssno

#endif  // SSNO_CORE_ENABLED_CACHE_HPP
