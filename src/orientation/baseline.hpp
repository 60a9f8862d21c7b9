// Non-self-stabilizing baseline: orientation by explicit initialization.
//
// The paper's §1.2 motivates self-stabilization against the classical
// alternative — initialize correctly once and hope: "No startup or
// initialization procedures are necessary since the system converges to
// legal state from any arbitrary state."  This baseline is that
// alternative, made concrete so the benches can quantify the difference:
// a one-shot distributed wave protocol that computes the same canonical
// DFS-preorder chordal orientation as DFTNO, but whose actions only fire
// when the per-node `done` flag is clear.  After any transient fault
// that corrupts a `done` processor, NOTHING is enabled there — the
// corruption is permanent until an external operator resets the system.
//
// (The wave itself is a standard non-stabilizing DFS numbering: each
// processor is numbered by its parent wave message; here realized in the
// same guarded-command model with an explicit visited flag.)
#ifndef SSNO_ORIENTATION_BASELINE_HPP
#define SSNO_ORIENTATION_BASELINE_HPP

#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "orientation/chordal.hpp"

namespace ssno {

class InitBasedOrientation final : public Protocol {
 public:
  enum Action : int { kNumber = 0, kLabel = 1 };
  static constexpr int kActionCount = 2;

  explicit InitBasedOrientation(Graph graph);

  // ---- Protocol interface ----
  [[nodiscard]] int actionCount() const override { return kActionCount; }
  [[nodiscard]] std::string actionName(int action) const override;
  [[nodiscard]] bool enabled(NodeId p, int action) const override;
  /// The Number guard reads a non-neighbor (the preorder predecessor's
  /// `numbered` flag), so simultaneous steps must use full snapshots.
  [[nodiscard]] bool guardsAreNeighborhoodLocal() const override {
    return false;
  }
  [[nodiscard]] std::string dumpNode(NodeId p) const override;

  // ---- Orientation API ----
  [[nodiscard]] int modulus() const { return graph().nodeCount(); }
  [[nodiscard]] int name(NodeId p) const { return eta_[p]; }
  [[nodiscard]] Orientation orientation() const;

  /// The operator's reset button: the explicit initialization procedure
  /// self-stabilizing protocols do not need.
  void initializeAll();

  /// Correct result reached (and, absent faults, kept).
  [[nodiscard]] bool isCorrect() const;

 protected:
  // ---- Protocol mutation hooks ----
  void doExecute(NodeId p, int action) override;

  /// The Number guard at p reads the `numbered` flag of p's preorder
  /// predecessor, which is generally NOT a neighbor (the wave order is a
  /// global DFS preorder), so a write at p must additionally dirty p's
  /// preorder successor, whatever the action.
  void dirtyAfterWrite(NodeId p, int action) override;

 private:
  [[nodiscard]] static std::size_t idx(NodeId p) {
    return static_cast<std::size_t>(p);
  }

  // The wave order, fixed by the topology (cached DFS preorder).
  std::vector<int> preorder_;
  // successor_[p]: the node whose preorder index is preorder_[p]+1
  // (kNoNode for the last node) — the extra guard dependency above.
  std::vector<NodeId> successor_;
  // SoA state columns {done, numbered, η, π row}, done the most
  // significant digit.
  StateArena arena_;
  // done: this processor finished both phases and will never act again.
  NodeColumn done_;
  NodeColumn numbered_;
  NodeColumn eta_;
  PortColumn pi_;
};

}  // namespace ssno

#endif  // SSNO_ORIENTATION_BASELINE_HPP
