// Self-stabilizing BFS spanning tree — the substrate assumed by STNO
// (standing in for the spanning-tree constructions of [1, 2, 8, 12]).
//
// The classic silent distance protocol: the root is fixed at distance 0
// (and stores nothing); every other processor p maintains
//   dist_p ∈ {1..N−1}   its believed hop distance to the root,
//   par_p  ∈ {0..Δp−1}  the port of its chosen parent,
// and runs the single correction action
//   Fix(p):  dist_p ≠ 1 + min_q distOf(q)  ∨  distOf(parent) ≠ min
//            -->  dist_p := min(1 + min_q distOf(q), N−1);
//                 par_p := first port attaining the min.
// With the domain bounded by N−1 and the root pinned at 0, fictitious
// distances rise monotonically until corrected, and the protocol is
// silent exactly when dist equals the true BFS distance everywhere and
// every parent attains the minimum — a spanning tree of shortest paths.
// Convergence holds under any (even unfair) daemon, which is what lets
// the paper run STNO with an unfair daemon.
//
// Statement.  Fix is written once, in outcome(): a pure function of the
// pre-move configuration giving p's new {dist, par}.  A sequential step
// commits it at once; a synchronous batch computes every outcome before
// it commits any; STNO's TreeFix commits the same outcome.
#ifndef SSNO_SPTREE_BFS_TREE_HPP
#define SSNO_SPTREE_BFS_TREE_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/guard_counts.hpp"
#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "sptree/tree_view.hpp"

namespace ssno {

class BfsTree final : public Protocol, public TreeView {
 public:
  static constexpr int kFix = 0;
  static constexpr int kActionCount = 1;

  explicit BfsTree(Graph graph);

  // ---- Protocol interface ----
  [[nodiscard]] int actionCount() const override { return kActionCount; }
  [[nodiscard]] std::string actionName(int action) const override;
  [[nodiscard]] bool enabled(NodeId p, int action) const override;
  /// Columnar kernel: one fused min-distance walk per node over the
  /// dist_ column (vs enabled()'s separate min + parent lookups through
  /// the virtual call).  Bit-identical to enabled()
  /// (GuardBatch.KernelsMatchScalarOnRandomizedStates).
  void evaluateGuards(std::span<const NodeId> nodes,
                      std::uint64_t* masks) const override;
  [[nodiscard]] std::string dumpNode(NodeId p) const override;

  // ---- TreeView interface ----
  [[nodiscard]] std::span<const Port> parentPorts() const override {
    return par_.data();
  }
  [[nodiscard]] const Graph& treeGraph() const override { return graph(); }

  // ---- Substrate-specific API ----
  [[nodiscard]] int distOf(NodeId p) const {
    return p == graph().root() ? 0 : dist_[p];
  }

  /// L_ST: dist equals the true BFS distance everywhere and every parent
  /// attains it (equivalently: no action enabled — the protocol is
  /// silent — and the parent pointers form a BFS spanning tree).
  /// O(writes since the previous check), amortized, through GuardCounts,
  /// built at the first check (non-const for that reason; nothing
  /// observable changes).
  [[nodiscard]] bool isLegitimate();

  /// Height of the current parent structure; -1 if not a spanning tree.
  [[nodiscard]] int currentHeight() const;

  /// Per-node variable bits: log N (dist) + log Δp (par).
  [[nodiscard]] double stateBits(NodeId p) const;

  /// ---- Statement, two-phase: compute, then commit --------------------
  /// Fix's post-state at p against the current configuration, from one
  /// walk of p's neighbours.  outcome performs no writes; commit installs
  /// it without dirtying (the caller's wrapper or batch driver records
  /// the writer).
  struct Outcome {
    int dist = 0;
    int par = 0;
  };
  [[nodiscard]] Outcome outcome(NodeId p) const;
  void commit(NodeId p, const Outcome& o) {
    dist_[p] = o.dist;
    par_[p] = o.par;
  }

 protected:
  // ---- Protocol mutation hooks ----
  /// commit(p, outcome(p)).
  void doExecute(NodeId p, int action) override;
  /// Batched synchronous step: every outcome against the pre-step
  /// configuration, then every commit.
  bool doExecuteSimultaneous(std::span<const Move> moves) override;

 private:
  [[nodiscard]] int minNeighborDist(NodeId p) const;

  // SoA state columns {dist, par}, dist the least significant digit.
  StateArena arena_;
  NodeColumn dist_;  // 1..N−1 (root pinned at 0)
  NodeColumn par_;   // port (root pinned at 0)
  std::vector<Outcome> batch_;  // reused phase-1 buffer
  std::unique_ptr<GuardCounts> fixes_;  // processors with Fix enabled
};

}  // namespace ssno

#endif  // SSNO_SPTREE_BFS_TREE_HPP
