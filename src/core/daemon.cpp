#include "core/daemon.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "core/bitwords.hpp"

namespace ssno {

void Daemon::onePerNode(std::span<const Move> enabled, Rng& rng,
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

void Daemon::onePerNode(const EnabledView& enabled, Rng& rng,
                        std::vector<Move>& out) {
  // Same reservoir, driven by the masks: ascending nodes via the
  // two-level node index, ascending actions via bit extraction — the
  // identical draw sequence.
  out.clear();
  enabled.forEachNode([&](NodeId p) {
    std::uint64_t mask = enabled.actionMask(p);
    Move chosen{p, bits::lowestBit(mask)};
    mask &= mask - 1;
    int k = 1;
    while (mask != 0) {
      const int a = bits::lowestBit(mask);
      mask &= mask - 1;
      if (rng.below(++k) == 0) chosen = Move{p, a};
    }
    out.push_back(chosen);
  });
}

void CentralDaemon::selectInto(const EnabledView& enabled, Rng& rng,
                               std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  out.clear();
  out.push_back(enabled.kthMove(rng.below(enabled.moveCount())));
}

void CentralDaemon::legacySelect(std::span<const Move> enabled, Rng& rng,
                                 std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  out.clear();
  out.push_back(enabled[static_cast<std::size_t>(
      rng.below(static_cast<int>(enabled.size())))]);
}

void DistributedDaemon::pickSubset(Rng& rng, std::vector<Move>& out) {
  out.clear();
  for (const Move& m : perNode_)
    if (rng.chance(0.5)) out.push_back(m);
  if (out.empty())
    out.push_back(perNode_[static_cast<std::size_t>(
        rng.below(static_cast<int>(perNode_.size())))]);
}

void DistributedDaemon::selectInto(const EnabledView& enabled, Rng& rng,
                                   std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  onePerNode(enabled, rng, perNode_);
  pickSubset(rng, out);
}

void DistributedDaemon::legacySelect(std::span<const Move> enabled, Rng& rng,
                                     std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  onePerNode(enabled, rng, perNode_);
  pickSubset(rng, out);
}

void SynchronousDaemon::selectInto(const EnabledView& enabled, Rng& rng,
                                   std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  onePerNode(enabled, rng, out);
}

void SynchronousDaemon::legacySelect(std::span<const Move> enabled, Rng& rng,
                                     std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  onePerNode(enabled, rng, out);
}

void RoundRobinDaemon::selectInto(const EnabledView& enabled, Rng& /*rng*/,
                                  std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  // The cyclic successor of the last served pair: mask arithmetic on
  // last_.node, then a two-level search for the next enabled node —
  // O(1 + n/4096), no scan of the enabled set.
  last_ = enabled.nextPairAfter(last_);
  out.clear();
  out.push_back(last_);
}

void RoundRobinDaemon::legacySelect(std::span<const Move> enabled,
                                    Rng& /*rng*/, std::vector<Move>& out) {
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

void AdversarialDaemon::selectInto(const EnabledView& enabled, Rng& /*rng*/,
                                   std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  out.clear();
  out.push_back(enabled.firstMove());
}

void AdversarialDaemon::legacySelect(std::span<const Move> enabled,
                                     Rng& /*rng*/, std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  const Move* best = &enabled.front();
  for (const Move& m : enabled)
    if (m.node < best->node ||
        (m.node == best->node && m.action < best->action))
      best = &m;
  out.clear();
  out.push_back(*best);
}

std::unique_ptr<Daemon> makeDaemon(DaemonKind kind) {
  switch (kind) {
    case DaemonKind::kCentral:
      return std::make_unique<CentralDaemon>();
    case DaemonKind::kDistributed:
      return std::make_unique<DistributedDaemon>();
    case DaemonKind::kSynchronous:
      return std::make_unique<SynchronousDaemon>();
    case DaemonKind::kRoundRobin:
      return std::make_unique<RoundRobinDaemon>();
    case DaemonKind::kAdversarial:
      return std::make_unique<AdversarialDaemon>();
  }
  SSNO_ASSERT(false);
  return nullptr;
}

std::string daemonKindName(DaemonKind kind) {
  return makeDaemon(kind)->name();
}

}  // namespace ssno
