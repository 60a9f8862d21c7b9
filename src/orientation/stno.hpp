// STNO — network orientation using a spanning tree protocol
// (the paper's Algorithm 4.1.2, Chapter 4).
//
// Layered on a rooted spanning tree (self-stabilizing BFS tree, or any
// fixed tree such as a DFS tree for the Chapter-5 ablation).  Subtree
// weights flow bottom-up; the root then hands out non-overlapping name
// intervals top-down; finally every node labels all incident edges (tree
// and non-tree) with the chordal distance of the endpoint names.
//
// Macros (paper, with port-order children):
//   CalcWeight_p = { Weight_p := 1 + Σ_{q∈D_p} Weight_q }
//   Distribute_p = { given := η_p;
//                    ∀q ∈ D_p: Start_p[q] := given + 1;
//                              given := given + Weight_q }
//   Edgelabel_p  = { ∀l ∈ E_{p,q}: π_p[l] := (η_p − η_q) mod N }
//
// Actions (collapsing the paper's role-split IN/IE/IW, RN/RE/RW,
// LN/LE/LW tables into three role-aware actions; roles are read from the
// tree substrate as in the paper):
//   NodeLabel(p): InvalidNodelabel(p) --> η_p := Start_{A_p}[p] (root: 0);
//                                         Distribute_p; Edgelabel_p
//   EdgeLabel(p): ¬InvalidNodelabel(p) ∧ InvalidEdgelabel(p)
//                                     --> Edgelabel_p
//   Weight(p)   : InvalidWeight(p)    --> CalcWeight_p  (leaf: := 1)
//
// Paper errata applied (see DESIGN.md):
//  erratum 1: InvalidNodelabel(p) additionally flags a Start_p array
//     inconsistent with Distribute's computation; without this, corrupt
//     Start arrays at correctly-named nodes are a stable SP1 violation.
//  erratum 2: InvalidWeight / InvalidEdgelabel use the intended Σ / ∃
//     forms.
//  erratum 3: interval arithmetic is taken mod N (and weights clamp at
//     N) so corrupt values stay in domain.
// The composition with the BFS tree needs weak fairness between layers,
// not the unfair daemon Chapter 5 claims (DESIGN.md deviation note 5).
//
// Statements.  Each action's statement is written once, in outcome(): a
// function of the pre-move configuration giving p's new variables.
// TreeFix's outcome is BfsTree's; NodeLabel's Start and π rows and
// EdgeLabel's π row go into one reused flat scratch.  A sequential step
// commits its outcome at once; a synchronous batch computes every
// outcome before it commits any, so the simultaneous-step engine takes
// its batch branch and no neighbourhood rollbacks.
//
// The protocol is silent: the unique terminal configuration (for a fixed
// legitimate tree) has correct weights, the canonical preorder-interval
// names, and chordal edge labels — SP1 ∧ SP2 hold there (proved by the
// tests, mechanically model-checked on small instances).  Stabilizes in
// O(h) rounds after the tree does; works under an unfair daemon.
#ifndef SSNO_ORIENTATION_STNO_HPP
#define SSNO_ORIENTATION_STNO_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/guard_counts.hpp"
#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "orientation/chordal.hpp"
#include "sptree/bfs_tree.hpp"
#include "sptree/tree_view.hpp"

namespace ssno {

class Stno final : public Protocol {
 public:
  enum Action : int {
    kTreeFix = 0,   ///< substrate action (disabled in fixed-tree mode)
    kNodeLabel = 1,
    kEdgeLabel = 2,
    kWeight = 3,
  };
  static constexpr int kActionCount = 4;

  /// STNO over the self-stabilizing BFS spanning tree substrate.
  explicit Stno(Graph graph);

  /// STNO over a fixed spanning tree (parent[root] == kNoNode); used for
  /// the DFS-tree ablation and for model checking the orientation layer.
  Stno(Graph graph, const std::vector<NodeId>& fixedParents);

  // ---- Protocol interface ----
  [[nodiscard]] int actionCount() const override { return kActionCount; }
  [[nodiscard]] std::string actionName(int action) const override;
  [[nodiscard]] bool enabled(NodeId p, int action) const override;
  /// Columnar kernel: the tree bit via BfsTree's batch kernel, then one
  /// fused child walk per node shared by the Weight sum and the Start-
  /// row consistency check, and the SP2 row via the shared chordal-row
  /// scan — vs four virtual enabled() calls each re-walking children.
  /// The child test reads the tree's parent-port column, fetched once
  /// per batch; the Start row is checked without a division while its
  /// values are in range.
  void evaluateGuards(std::span<const NodeId> nodes,
                      std::uint64_t* masks) const override;
  [[nodiscard]] std::string dumpNode(NodeId p) const override;

  // ---- Orientation API ----
  [[nodiscard]] int modulus() const { return graph().nodeCount(); }
  [[nodiscard]] int name(NodeId p) const { return eta_[p]; }
  [[nodiscard]] int weight(NodeId p) const { return weight_[p]; }
  [[nodiscard]] int startAt(NodeId p, Port l) const {
    return start_.at(p, l);
  }
  [[nodiscard]] int edgeLabel(NodeId p, Port l) const {
    return pi_.at(p, l);
  }
  [[nodiscard]] Orientation orientation() const;

  /// The tree the orientation layer currently reads.
  [[nodiscard]] const TreeView& tree() const { return *view_; }

  /// L_ST: substrate stabilized (always true in fixed-tree mode).
  [[nodiscard]] bool substrateLegitimate();

  /// L_NO: substrate legitimate and the orientation layer silent (the
  /// terminal configuration is unique and satisfies SP1 ∧ SP2).
  ///
  /// Both predicates read counts of processors with an enabled tree
  /// action and with an enabled overlay action, kept by GuardCounts from
  /// THIS protocol's writer feed (the BFS substrate's own feed misses
  /// the simultaneous-step engine's column restores): O(writes since the
  /// previous check) amortized, built at the first check.
  [[nodiscard]] bool isLegitimate();

  /// Per-node variable bits including the tree substrate.
  [[nodiscard]] double stateBits(NodeId p) const;
  /// Orientation layer only: Weight + η + Start (Δp) + π (Δp).
  [[nodiscard]] double orientationBits(NodeId p) const;
  /// Tree substrate only (the extra O(Δ·log N) of Chapter 5's comparison
  /// is the *children* knowledge; our BFS tree stores parent+dist).
  [[nodiscard]] double substrateBits(NodeId p) const;

 protected:
  // ---- Protocol mutation hooks ----
  /// commit(p, outcome(p, action)).
  void doExecute(NodeId p, int action) override;
  /// Batched synchronous step: phase 1 computes every move's outcome
  /// against the pre-step configuration, phase 2 commits.
  bool doExecuteSimultaneous(std::span<const Move> moves) override;
  /// The guards that can read a move's writes.  EdgeLabel writes π_p,
  /// which only p's own EdgeLabel guard reads: {p}.  Weight writes W_p,
  /// which p's Weight guard reads and so does the one neighbour that
  /// counts p as a child (its CalcWeight sum and Start check), the tree
  /// parent; the child test excludes the root, so a root's W has no such
  /// reader: {p, A_p}, or {p} at the root.  A Weight move writes no tree
  /// column, so A_p is the same before and after it.  Every other write
  /// keeps N[p].
  void dirtyAfterWrite(NodeId p, int action) override;

 private:
  /// ---- Statements, two-phase: compute, then commit ------------------
  /// One move's post-state: TreeFix's {dist, par}, NodeLabel's η or
  /// Weight's W in `value`, and for NodeLabel (Start row, then π row) and
  /// EdgeLabel (π row) the offset of p's rows in rows_.
  struct Outcome {
    int action = -1;
    int value = 0;
    BfsTree::Outcome tree;
    std::size_t rows = 0;
  };
  /// Appends the move's rows to rows_ and writes nothing else.
  [[nodiscard]] Outcome outcome(NodeId p, int action);
  void commit(NodeId p, const Outcome& o);

  /// q = neighborAt(p, l) is p's child: q's parent port leads back to p
  /// (par[q] == backPort(p, l)), the batch kernel's test.  `par` is the
  /// tree's parent-port column, fetched once per guard or statement.
  [[nodiscard]] bool isChild(const Port* par, NodeId p, Port l) const;
  [[nodiscard]] int expectedWeight(NodeId p) const;
  /// Start_{A_p}[p]: the parent's Start entry for p, at the back port of
  /// p's parent port.  O(1).
  [[nodiscard]] int startFromParent(NodeId p) const;
  [[nodiscard]] bool startInconsistent(NodeId p) const;
  [[nodiscard]] bool invalidNodeLabel(NodeId p) const;
  [[nodiscard]] bool invalidEdgeLabel(NodeId p) const;
  /// Appends Distribute's Start row for p, named eta, to rows_.
  void appendDistribute(NodeId p, int eta);
  /// Appends Edgelabel's π row for p, named eta, to rows_.
  void appendEdgeLabels(NodeId p, int eta);
  [[nodiscard]] GuardCounts& counts();

  std::unique_ptr<BfsTree> bfs_;        // null in fixed-tree mode
  std::unique_ptr<FixedTree> fixed_;    // null in substrate mode
  TreeView* view_ = nullptr;

  // SoA overlay columns {W, η, Start row, π row}, W the most significant
  // digit and the port columns' digits interleaved by port, declared
  // after the substrate's arena.
  StateArena arena_;
  NodeColumn weight_;  // 1..N
  NodeColumn eta_;     // 0..N−1
  PortColumn start_;   // per port, 0..N−1
  PortColumn pi_;      // per port, 0..N−1
  std::vector<Outcome> batch_;  // reused phase-1 buffer
  std::vector<int> rows_;       // the outcomes' Start and π rows
  // Group 0: the tree action; group 1: the overlay actions.
  std::unique_ptr<GuardCounts> counts_;
};

}  // namespace ssno

#endif  // SSNO_ORIENTATION_STNO_HPP
