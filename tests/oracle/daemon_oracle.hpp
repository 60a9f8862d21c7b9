// Reference daemons — selection over a node-major move vector, the
// oracle the bitmask-native production daemons (core/daemon) must agree
// with move for move and RNG draw for RNG draw.  The bodies are the
// historical vector-path selections: linear scans over the materialized
// enabled set, with per-node reservoir sampling over contiguous runs.
#ifndef SSNO_TESTS_ORACLE_DAEMON_ORACLE_HPP
#define SSNO_TESTS_ORACLE_DAEMON_ORACLE_HPP

#include <memory>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/daemon.hpp"
#include "core/protocol.hpp"
#include "core/rng.hpp"

namespace ssno::oracle {

class ReferenceDaemon {
 public:
  virtual ~ReferenceDaemon() = default;

  /// Selects into `out` (cleared first).  Precondition: `enabled` is
  /// non-empty and node-major (all moves of a node contiguous, nodes
  /// ascending, actions ascending — the order Protocol::enabledMoves
  /// produces).
  virtual void select(std::span<const Move> enabled, Rng& rng,
                      std::vector<Move>& out) = 0;

 protected:
  static void onePerNode(std::span<const Move> enabled, Rng& rng,
                         std::vector<Move>& out) {
    // Reservoir-sample one action per node so that every enabled action has
    // equal probability of representing its processor.  Node-major input
    // means one contiguous run per node; draws happen in input order, the
    // same sequence the historical map-based implementation produced.
    out.clear();
    for (std::size_t i = 0; i < enabled.size();) {
      const NodeId node = enabled[i].node;
      Move chosen = enabled[i];
      int k = 1;
      for (++i; i < enabled.size() && enabled[i].node == node; ++i)
        if (rng.below(++k) == 0) chosen = enabled[i];
      out.push_back(chosen);
    }
  }
};

class ReferenceCentral final : public ReferenceDaemon {
 public:
  void select(std::span<const Move> enabled, Rng& rng,
              std::vector<Move>& out) override {
    SSNO_EXPECTS(!enabled.empty());
    out.clear();
    out.push_back(enabled[static_cast<std::size_t>(
        rng.below(static_cast<int>(enabled.size())))]);
  }
};

class ReferenceDistributed final : public ReferenceDaemon {
 public:
  void select(std::span<const Move> enabled, Rng& rng,
              std::vector<Move>& out) override {
    SSNO_EXPECTS(!enabled.empty());
    onePerNode(enabled, rng, perNode_);
    out.clear();
    for (const Move& m : perNode_)
      if (rng.chance(0.5)) out.push_back(m);
    if (out.empty())
      out.push_back(perNode_[static_cast<std::size_t>(
          rng.below(static_cast<int>(perNode_.size())))]);
  }

 private:
  std::vector<Move> perNode_;
};

class ReferenceSynchronous final : public ReferenceDaemon {
 public:
  void select(std::span<const Move> enabled, Rng& rng,
              std::vector<Move>& out) override {
    SSNO_EXPECTS(!enabled.empty());
    onePerNode(enabled, rng, out);
  }
};

class ReferenceRoundRobin final : public ReferenceDaemon {
 public:
  void select(std::span<const Move> enabled, Rng& /*rng*/,
              std::vector<Move>& out) override {
    SSNO_EXPECTS(!enabled.empty());
    // Serve the enabled (node, action) pair that follows the last served
    // pair in cyclic lexicographic order: every continuously enabled pair
    // is reached within one sweep (weak fairness at action granularity).
    auto follows = [this](const Move& m) {
      return m.node > last_.node ||
             (m.node == last_.node && m.action > last_.action);
    };
    auto lexLess = [](const Move& a, const Move& b) {
      return a.node < b.node || (a.node == b.node && a.action < b.action);
    };
    const Move* best = nullptr;
    const Move* wrap = nullptr;  // smallest pair overall (used on wrap-around)
    for (const Move& m : enabled) {
      if (follows(m) && (best == nullptr || lexLess(m, *best))) best = &m;
      if (wrap == nullptr || lexLess(m, *wrap)) wrap = &m;
    }
    if (best == nullptr) best = wrap;
    last_ = *best;
    out.clear();
    out.push_back(*best);
  }

 private:
  Move last_{-1, 1 << 20};  // sentinel: before every real pair
};

class ReferenceAdversarial final : public ReferenceDaemon {
 public:
  void select(std::span<const Move> enabled, Rng& /*rng*/,
              std::vector<Move>& out) override {
    SSNO_EXPECTS(!enabled.empty());
    const Move* best = &enabled.front();
    for (const Move& m : enabled)
      if (m.node < best->node ||
          (m.node == best->node && m.action < best->action))
        best = &m;
    out.clear();
    out.push_back(*best);
  }
};

/// The reference counterpart of makeDaemon(kind).
inline std::unique_ptr<ReferenceDaemon> makeReferenceDaemon(DaemonKind kind) {
  switch (kind) {
    case DaemonKind::kCentral: return std::make_unique<ReferenceCentral>();
    case DaemonKind::kDistributed:
      return std::make_unique<ReferenceDistributed>();
    case DaemonKind::kSynchronous:
      return std::make_unique<ReferenceSynchronous>();
    case DaemonKind::kRoundRobin:
      return std::make_unique<ReferenceRoundRobin>();
    case DaemonKind::kAdversarial:
      return std::make_unique<ReferenceAdversarial>();
  }
  SSNO_ASSERT(false);
  return nullptr;
}

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_DAEMON_ORACLE_HPP
