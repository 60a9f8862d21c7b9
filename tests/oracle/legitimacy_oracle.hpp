// Reference legitimacy predicates — the full-configuration definitions
// the production trackers (core/orbit_index, core/guard_counts) must
// agree with, kept in the tests as their oracle.
//
// L_TC and L_NO are the walks DESIGN.md "Legitimate sets" defines,
// recorded here the direct way: step the protocol with enabledMoves()
// and keep every raw configuration in a set until one repeats.  That is
// O(n·L) memory and O(n) per lookup — fine at test sizes, and the reason
// production does not do it.  The silent protocols' predicates are full
// guard scans.
#ifndef SSNO_TESTS_ORACLE_LEGITIMACY_ORACLE_HPP
#define SSNO_TESTS_ORACLE_LEGITIMACY_ORACLE_HPP

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/graph.hpp"
#include "core/protocol.hpp"
#include "dftc/dftc.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "sptree/bfs_tree.hpp"

namespace ssno::oracle {

/// A recorded walk: every configuration in walk order until the first
/// repeat, the position the walk returns to, and the legitimate members.
struct Orbit {
  std::vector<std::vector<int>> sequence;
  std::size_t cycleStart = 0;
  std::set<std::vector<int>> members;

  [[nodiscard]] bool contains(const Protocol& p) const {
    return members.contains(p.rawConfiguration());
  }
};

/// Steps `protocol` from its current configuration, executing pick(moves)
/// each step, until a configuration repeats.
template <class Pick>
Orbit walk(Protocol& protocol, Pick pick, bool prefixIsMember) {
  Orbit orbit;
  std::map<std::vector<int>, std::size_t> seen;
  while (true) {
    std::vector<int> config = protocol.rawConfiguration();
    const auto [it, inserted] = seen.try_emplace(config, orbit.sequence.size());
    if (!inserted) {
      orbit.cycleStart = it->second;
      break;
    }
    orbit.sequence.push_back(std::move(config));
    const std::vector<Move> moves = protocol.enabledMoves();
    if (moves.empty()) throw std::logic_error("oracle walk deadlocked");
    const Move m = pick(moves);
    protocol.execute(m.node, m.action);
  }
  orbit.members.insert(
      orbit.sequence.begin() +
          static_cast<long>(prefixIsMember ? 0 : orbit.cycleStart),
      orbit.sequence.end());
  return orbit;
}

/// L_TC: every configuration of the deterministic walk from the clean
/// round boundary, the pre-cycle prefix included.
inline Orbit dftcOrbit(const Graph& g) {
  Dftc dftc(g);
  dftc.resetClean();
  return walk(
      dftc,
      [](const std::vector<Move>& moves) {
        if (moves.size() != 1)
          throw std::logic_error("legitimate DFTC execution not deterministic");
        return moves.front();
      },
      /*prefixIsMember=*/true);
}

/// L_NO: the cycle of the walk from a clean substrate with a zeroed
/// overlay, edge-label corrections first, else the first enabled move.
inline Orbit dftnoOrbit(const Graph& g, EdgeLabelGuard guard) {
  Dftno dftno(g, guard);
  dftno.resetClean();
  return walk(
      dftno,
      [](const std::vector<Move>& moves) {
        for (const Move& m : moves)
          if (m.action == Dftno::kEdgeLabel) return m;
        return moves.front();
      },
      /*prefixIsMember=*/false);
}

/// No action of `actions` (a bitmask) enabled anywhere.
inline bool noneEnabled(const Protocol& p, std::uint64_t actions) {
  for (NodeId v = 0; v < p.graph().nodeCount(); ++v)
    for (int a = 0; a < p.actionCount(); ++a)
      if (((actions >> a) & 1) && p.enabled(v, a)) return false;
  return true;
}

inline bool bfsLegitimate(const BfsTree& tree) {
  return noneEnabled(tree, std::uint64_t{1} << BfsTree::kFix);
}

inline bool stnoSubstrateLegitimate(const Stno& stno) {
  return noneEnabled(stno, std::uint64_t{1} << Stno::kTreeFix);
}

inline bool stnoLegitimate(const Stno& stno) {
  return stnoSubstrateLegitimate(stno) &&
         noneEnabled(stno, (std::uint64_t{1} << Stno::kNodeLabel) |
                               (std::uint64_t{1} << Stno::kEdgeLabel) |
                               (std::uint64_t{1} << Stno::kWeight));
}

}  // namespace ssno::oracle

#endif  // SSNO_TESTS_ORACLE_LEGITIMACY_ORACLE_HPP
