// DFTNO — network orientation using depth-first token passing
// (the paper's Algorithm 3.1.1, Chapter 3).
//
// Layered on the Dftc substrate.  The circulating token acts as a counter:
//   Nodelabel_p  = { η_p := 0; Max_p := 0                     if p = root
//                    η_p := Max_{A_p} + 1; Max_p := η_p       otherwise }
//   UpdateMax_p  = { Max_p := Max_{D_p} }
//   Edgelabel_p  = { ∀l ∈ E_{p,q} with π_p[l] ≠ (η_p − η_q) mod N ::
//                    π_p[l] := (η_p − η_q) mod N }
// composed with the substrate as:
//   Forward(p)   --> Nodelabel_p                (token arrives first time)
//   Backtrack(p) --> UpdateMax_p                (token returns from child)
//   ¬Token(p) ∧ InvalidEdgelabel(p) --> Edgelabel_p
//
// The macros run in the same atomic step as the substrate action, so the
// composed protocol's action set is the substrate's six actions plus the
// EdgeLabel correction.  One compose writes that step once: it takes the
// substrate's Dftc::Outcome and computes the macro its event fires
// (Nodelabel on Start or Forward, UpdateMax on Backtrack) against the same
// pre-move state.  A sequential step commits its one composed move; a
// synchronous step composes every move before it commits any.  Stabilizes in O(n) steps after L_TC holds: the
// next full round renames every node with its DFS preorder index (which is
// the same every round — the traversal is deterministic), after which the
// edge labels are corrected locally and never change again.
//
// Space: η, Max (log N bits each) + π (Δp·log N) + substrate O(log N)
// = O(Δ·log N) per node, the paper's bound.
#ifndef SSNO_ORIENTATION_DFTNO_HPP
#define SSNO_ORIENTATION_DFTNO_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/orbit_index.hpp"
#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "dftc/dftc.hpp"
#include "orientation/chordal.hpp"

namespace ssno {

/// Guard used for the EdgeLabel correction action.
///
/// The paper's guard is ¬Token(p) ∧ InvalidEdgelabel(p).  The ¬Token
/// conjunct disables the action for a moment every round (whenever the
/// token visits p), so it is never *continuously* enabled — under the
/// paper's own weakly fair daemon the daemon may serve only token moves
/// forever and the labeling never completes.  This liveness gap was
/// found mechanically by the model checker (see DESIGN.md erratum 4):
/// the paper-faithful guard converges only under strong fairness.
/// kContinuous drops the conjunct; the action then stays enabled until
/// served and weak fairness suffices.  Both variants are verified in
/// tests/dftc_modelcheck_test.cpp.
enum class EdgeLabelGuard {
  kContinuous,     ///< InvalidEdgelabel(p)                 (default, fixed)
  kPaperFaithful,  ///< ¬Token(p) ∧ InvalidEdgelabel(p)     (needs strong fairness)
};

class Dftno final : public Protocol {
 public:
  /// Action ids 0..5 are the substrate's (Dftc::Action); 6 is EdgeLabel.
  static constexpr int kEdgeLabel = Dftc::kActionCount;
  static constexpr int kActionCount = Dftc::kActionCount + 1;

  explicit Dftno(Graph graph,
                 EdgeLabelGuard guard = EdgeLabelGuard::kContinuous);

  // ---- Protocol interface ----
  [[nodiscard]] int actionCount() const override { return kActionCount; }
  [[nodiscard]] std::string actionName(int action) const override;
  [[nodiscard]] bool enabled(NodeId p, int action) const override;
  /// Columnar kernel: substrate bits via Dftc's fused walk, EdgeLabel
  /// via a contiguous chordal-row scan (π row + CSR adjacency row + η
  /// gather).  ¬Token(p) for the paper-faithful guard is read off the
  /// substrate mask instead of six more guard evaluations.
  void evaluateGuards(std::span<const NodeId> nodes,
                      std::uint64_t* masks) const override;
  [[nodiscard]] std::string dumpNode(NodeId p) const override;

  // ---- Orientation API ----
  /// The modulus N every node knows (here: the exact node count).
  [[nodiscard]] int modulus() const { return graph().nodeCount(); }

  [[nodiscard]] int name(NodeId p) const { return eta_[p]; }
  [[nodiscard]] int maxSeen(NodeId p) const { return max_[p]; }
  [[nodiscard]] int edgeLabel(NodeId p, Port l) const {
    return pi_.at(p, l);
  }

  /// Snapshot of the current names/labels for the chordal checkers.
  [[nodiscard]] Orientation orientation() const;

  /// SP_NO = SP1 ∧ SP2 on the current names/labels (paper §2.3).
  [[nodiscard]] bool satisfiesSpecNow() const;

  /// L_NO: the configuration lies on the steady-state orbit of the
  /// composed system — the token circulates legitimately AND the names
  /// are the canonical DFS preorder with chordal labels and round-
  /// consistent Max values.  The orbit is the cycle the walk from
  /// resetClean() enters under a fixed fair schedule (edge-label
  /// corrections first, then the unique token move); the pre-cycle
  /// prefix is not legitimate.
  ///
  /// Note a subtlety the paper glosses over: its predicate
  /// "L_TC ∧ SP1 ∧ SP2" is NOT closed — any non-canonical permutation
  /// satisfies SP1/SP2, but the next token round re-labels nodes with
  /// their preorder numbers and transiently breaks SP1 along the way
  /// (found mechanically by the model checker; see DESIGN.md deviation
  /// note 6).  The steady-state orbit is the largest closed legitimate
  /// set, and SP1 ∧ SP2 hold everywhere on it (asserted by the tests).
  ///
  /// Both predicates cost O(writes since the previous check), plus O(n)
  /// when the configuration is on the orbit, through one OrbitTracker
  /// fed by THIS protocol's writer feed (every step commits substrate
  /// columns directly, so the substrate object's own feed and dirty set
  /// stay empty).  Index and tracker are built at the first check.
  [[nodiscard]] bool isLegitimate();
  /// L_TC alone (substrate stabilized).
  [[nodiscard]] bool substrateLegitimate();

  /// The recorded walk behind L_NO, built at the first request on a
  /// scratch instance.
  [[nodiscard]] const OrbitIndex& orbitIndex();

  /// Resets to the clean substrate round boundary with a zeroed overlay
  /// (η = Max = π = 0 everywhere) — the start of the L_NO walk.
  void resetClean();

  /// Read-only access to the substrate (tests, benches, DFS-tree
  /// adapter).  Writes must go through this protocol, whose writer feed
  /// and dirty set a substrate write would bypass.
  [[nodiscard]] const Dftc& substrate() const { return dftc_; }

  /// Per-node variable bits including the substrate (space reporting).
  [[nodiscard]] double stateBits(NodeId p) const;
  /// Bits of the orientation layer only (η + Max + π).
  [[nodiscard]] double orientationBits(NodeId p) const;

 protected:
  // ---- Protocol mutation hooks ----
  /// commit(p, compose(p, action)).
  void doExecute(NodeId p, int action) override;
  /// Batched synchronous step: phase 1 composes every move against the
  /// pre-step configuration, phase 2 commits — the whole dense step
  /// without the engine's per-move snapshot/rollback schedule.
  bool doExecuteSimultaneous(std::span<const Move> moves) override;
  /// EdgeLabel writes π_p alone, and no guard but p's own EdgeLabel reads
  /// π (¬Token(p), under either EdgeLabelGuard, reads substrate columns
  /// only), so its region is {p}.  Every other write keeps N[p].
  void dirtyAfterWrite(NodeId p, int action) override;

 private:
  [[nodiscard]] int chordal(NodeId p, NodeId q) const {
    return chordalDistance(eta_[p], eta_[q], modulus());
  }
  [[nodiscard]] bool invalidEdgeLabel(NodeId p) const;
  [[nodiscard]] OrbitTracker& tracker();

  // One composed move, computed against the configuration before the
  // move: the substrate's post-state {s, col, d, par} with the η/Max of
  // the macro its event fires, or (substrate == false) an EdgeLabel
  // move, whose π row compose already wrote.  A dense step buffers one
  // per move, so it keeps only the values commit installs, not the
  // substrate Outcome's event and peer.
  struct Composed {
    std::int32_t s = 0;
    std::int32_t col = 0;
    std::int32_t d = 0;
    std::int32_t par = 0;
    std::int32_t eta = 0;
    std::int32_t max = 0;
    bool substrate = false;
  };
  [[nodiscard]] Composed compose(NodeId p, int action);
  void commit(NodeId p, const Composed& c);

  Dftc dftc_;
  EdgeLabelGuard guard_;
  // SoA overlay columns {η, Max, π row}, η the most significant digit,
  // declared after the substrate's arena.
  StateArena arena_;
  NodeColumn eta_;   // η_p ∈ 0..N−1
  NodeColumn max_;   // Max_p ∈ 0..N−1
  PortColumn pi_;    // π_p[l] ∈ 0..N−1
  std::vector<Composed> batch_;  // reused phase-1 buffer
  // L_NO's walk and the live fingerprints (checked against the
  // substrate's index for L_TC and this one for L_NO), built at the
  // first check.
  std::unique_ptr<OrbitIndex> orbit_;
  std::unique_ptr<OrbitTracker> tracker_;
};

}  // namespace ssno

#endif  // SSNO_ORIENTATION_DFTNO_HPP
