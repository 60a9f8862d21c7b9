// GuardCounts — whether any processor has an action of a given group
// enabled, kept current from the protocol's writer feed.
//
// A silent protocol's legitimacy predicate is "no action of group G
// enabled anywhere" (BfsTree: no TreeFix; Stno: no tree action, and no
// overlay action).  Rescanning every processor per check is O(n).  A
// guard at p reads only N[p], so a write at w can change guards on N[w]
// only.  Per group the counts keep each processor's last evaluated
// enabled bit and the number of *clean* processors — none of their
// closed-neighbourhood writes unevaluated — whose bit is set.  A check
// marks the writers' closed neighbourhoods dirty (O(Σ deg(writer))) and,
// only while no clean processor is known enabled, re-evaluates dirty
// processors one at a time until one turns out enabled.  Each dirtying
// is evaluated at most once, so a check costs O(writes) amortized, and
// while the system is still converging it stops after a few
// evaluations, like the early exit of a full scan.  Groups are evaluated
// lazily through the protocol's evaluateGuards, so a predicate that reads
// only one group never re-evaluates the others.  A whole-configuration
// write costs each group one full re-evaluation at its next check.
//
// Requires neighbourhood-local guards.  The counts arm the protocol's
// writer feed and are its single consumer; construct them at the first
// check, not with the protocol.
#ifndef SSNO_CORE_GUARD_COUNTS_HPP
#define SSNO_CORE_GUARD_COUNTS_HPP

#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "core/types.hpp"

namespace ssno {

class GuardCounts {
 public:
  /// One group per entry of `groups`, each a mask of the protocol's
  /// action indices.
  GuardCounts(Protocol& protocol, const std::vector<std::uint64_t>& groups);

  /// Whether some processor has an action of group g enabled right now.
  [[nodiscard]] bool anyEnabled(std::size_t g);

 private:
  struct State {
    std::uint64_t actions = 0;
    bool all = true;  // every bit stale (a whole-configuration write)
    int cleanEnabled = 0;  // clean processors whose bit is set
    std::vector<std::uint8_t> enabled;  // last evaluated bit per processor
    std::vector<std::uint8_t> dirty;
    std::vector<NodeId> dirtyList;
  };
  /// Moves the protocol's writer feed into every group's dirty set.
  void drainFeed();
  void markDirty(State& s, NodeId p);

  Protocol& protocol_;
  std::vector<State> groups_;
  std::vector<NodeId> batch_;
  std::vector<std::uint64_t> masks_;
};

}  // namespace ssno

#endif  // SSNO_CORE_GUARD_COUNTS_HPP
