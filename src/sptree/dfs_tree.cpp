#include "sptree/dfs_tree.hpp"

#include "core/assert.hpp"
#include "core/daemon.hpp"
#include "core/scheduler.hpp"

namespace ssno {

namespace {

void dfsVisit(const Graph& g, NodeId p, std::vector<bool>& seen,
              std::vector<NodeId>& parent, std::vector<int>& order,
              int& next) {
  seen[static_cast<std::size_t>(p)] = true;
  order[static_cast<std::size_t>(p)] = next++;
  for (NodeId q : g.neighbors(p)) {
    if (!seen[static_cast<std::size_t>(q)]) {
      parent[static_cast<std::size_t>(q)] = p;
      dfsVisit(g, q, seen, parent, order, next);
    }
  }
}

}  // namespace

std::vector<NodeId> portOrderDfsTree(const Graph& g) {
  std::vector<bool> seen(static_cast<std::size_t>(g.nodeCount()), false);
  std::vector<NodeId> parent(static_cast<std::size_t>(g.nodeCount()), kNoNode);
  std::vector<int> order(static_cast<std::size_t>(g.nodeCount()), 0);
  int next = 0;
  dfsVisit(g, g.root(), seen, parent, order, next);
  SSNO_ENSURES(next == g.nodeCount());
  return parent;
}

std::vector<int> portOrderDfsPreorder(const Graph& g) {
  std::vector<bool> seen(static_cast<std::size_t>(g.nodeCount()), false);
  std::vector<NodeId> parent(static_cast<std::size_t>(g.nodeCount()), kNoNode);
  std::vector<int> order(static_cast<std::size_t>(g.nodeCount()), 0);
  int next = 0;
  dfsVisit(g, g.root(), seen, parent, order, next);
  return order;
}

std::vector<NodeId> dfsTreeFromCirculation(Dftc& dftc, StepCount maxMoves) {
  // Phase 1: let the substrate stabilize under a weakly fair daemon
  // (DFTNO's fairness assumption, Chapter 5).
  StepCount spent = 0;
  {
    RoundRobinDaemon daemon;
    Rng rng(0x5eed);
    Simulator sim(dftc, daemon, rng);
    const RunStats stats =
        sim.runUntil([&dftc] { return dftc.isLegitimate(); }, maxMoves);
    SSNO_EXPECTS(stats.converged);
    spent += stats.moves;
  }
  // Phase 2: record adopted parents over one clean round.
  std::vector<NodeId> parent(
      static_cast<std::size_t>(dftc.graph().nodeCount()), kNoNode);
  int roundStarts = 0;
  while (roundStarts < 2) {
    const std::vector<Move> moves = dftc.enabledMoves();
    SSNO_ASSERT(moves.size() == 1);  // legitimate orbit is deterministic
    const Move m = moves.front();
    dftc.execute(m.node, m.action);
    if (m.action == Dftc::kStart) {
      ++roundStarts;
    } else if (m.action == Dftc::kForward && roundStarts == 1) {
      parent[static_cast<std::size_t>(m.node)] =
          dftc.graph().neighborAt(m.node, dftc.parentPort(m.node));
    }
    SSNO_EXPECTS(++spent <= maxMoves);
  }
  return parent;
}

}  // namespace ssno
