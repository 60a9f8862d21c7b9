#include "core/daemon.hpp"

#include "core/assert.hpp"
#include "core/bitwords.hpp"

namespace ssno {

void Daemon::onePerNode(const EnabledView& enabled, Rng& rng,
                        std::vector<Move>& out) {
  // Reservoir-sample one action per node so that every enabled action
  // has equal probability of representing its processor: ascending
  // nodes via the two-level node index, ascending actions via bit
  // extraction.
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

void SynchronousDaemon::selectInto(const EnabledView& enabled, Rng& rng,
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

void AdversarialDaemon::selectInto(const EnabledView& enabled, Rng& /*rng*/,
                                   std::vector<Move>& out) {
  SSNO_EXPECTS(!enabled.empty());
  out.clear();
  out.push_back(enabled.firstMove());
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
