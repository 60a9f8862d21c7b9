// Self-stabilizing DFS spanning tree via lexicographic path words, in
// the style of Collin-Dolev ("Self-stabilizing depth-first search",
// IPL 1994) — the second spanning-tree substrate family the paper's
// related work points at.
//
// Every non-root processor maintains the *path word* w_p: the sequence
// of local port numbers taken from the root to p, plus the parent port.
// The root's word is the empty sequence.  Candidate words arrive from
// neighbors as w_q ⊕ port_q(p); a processor corrects itself whenever its
// word or parent is not the lexicographically smallest candidate
// (shorter-prefix-first ordering), with words longer than N−1 treated
// as ⊤ (invalid).  The silent fixpoint assigns every processor the
// lex-minimal root path — whose union is exactly the **port-order DFS
// tree** (the "first DFS tree"): tested against the centralized
// reference and exhaustively model checked on small graphs.
//
// With this substrate, STNO over a DFS tree becomes fully
// self-stabilizing end to end, making Chapter 5's closing observation
// (DFS-tree STNO naming ≡ DFTNO naming) a theorem about two complete
// self-stabilizing stacks rather than an ablation with a fixed tree.
//
// Space: O(n·log Δ) bits per processor (the path word), versus the BFS
// tree's O(log n + log Δ) — the classic price of a DFS tree, and the
// reason the paper's DFTNO (token-based, O(log n) substrate overhead)
// is the cheaper route to DFS naming.
#ifndef SSNO_SPTREE_LEX_DFS_TREE_HPP
#define SSNO_SPTREE_LEX_DFS_TREE_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/state_arena.hpp"
#include "sptree/tree_view.hpp"

namespace ssno {

class LexDfsTree final : public Protocol, public TreeView {
 public:
  static constexpr int kFix = 0;
  static constexpr int kActionCount = 1;

  explicit LexDfsTree(Graph graph);

  // ---- Protocol interface ----
  [[nodiscard]] int actionCount() const override { return kActionCount; }
  [[nodiscard]] std::string actionName(int action) const override;
  // Deliberately NOT overriding evaluateGuards: the guard compares
  // variable-length lexicographic candidate words held in paged
  // VarColumn rows, so there is no fixed-stride column layout to scan —
  // each comparison is a data-dependent word walk with early exit, and
  // a "batch" version would just re-run the scalar comparisons with no
  // shared loads to fuse.  The scalar default is the right path here.
  [[nodiscard]] bool enabled(NodeId p, int action) const override;
  /// The word is no per-node range, so the codec is hand-written: the
  /// parent port is the least significant digit, then the word's index
  /// (⊤, then words by length, each length block in base-Δmax order).
  [[nodiscard]] std::uint64_t localStateCount(NodeId p) const override;
  [[nodiscard]] std::uint64_t encodeNode(NodeId p) const override;
  [[nodiscard]] std::string dumpNode(NodeId p) const override;

  // ---- TreeView interface ----
  [[nodiscard]] std::span<const Port> parentPorts() const override {
    return par_.data();
  }
  [[nodiscard]] const Graph& treeGraph() const override { return graph(); }

  // ---- Substrate-specific API ----
  /// ⊤ (no valid path known) is represented as an absent word.
  /// Materializes a copy of the word's VarColumn row, for inspection;
  /// the guards read the row in place.
  [[nodiscard]] std::optional<std::vector<Port>> word(NodeId p) const {
    if (!has_[p]) return std::nullopt;
    const std::span<const int> row = word_.row(p);
    return std::vector<Port>(row.begin(), row.end());
  }

  /// L: silent, i.e. every word is the lex-min root path and every
  /// parent attains it (then parentOf is the port-order DFS tree).
  [[nodiscard]] bool isLegitimate() const;

  /// Per-node variable bits: word (≤ (N−1)·log Δmax) + parent port.
  [[nodiscard]] double stateBits(NodeId p) const;

 protected:
  // ---- Protocol mutation hooks ----
  void doExecute(NodeId p, int action) override;
  /// Non-uniform: ⊤ with probability 0.15, else a random length and
  /// random entries, then the parent port.
  void doRandomizeNode(NodeId p, Rng& rng) override;
  void doDecodeNode(NodeId p, std::uint64_t code) override;

 private:
  /// A candidate word w_q ⊕ port_q(p), represented without
  /// materialization: the neighbor's word row plus one appended entry.
  /// valid == false is ⊤ (neighbor's word absent or result too long).
  struct Cand {
    bool valid = false;
    std::span<const int> prefix;  // the neighbor's word row
    int last = 0;                 // appended entry port_q(p)
    Port port = kNoPort;          // p's port the candidate arrives on
  };
  /// Lexicographic shorter-prefix-first order on candidates (⊤ largest).
  [[nodiscard]] static bool candLess(const Cand& a, const Cand& b);
  [[nodiscard]] Cand candidateVia(NodeId p, Port l) const;
  [[nodiscard]] Cand bestCandidate(NodeId p) const;
  /// Does p's current word equal the candidate?
  [[nodiscard]] bool wordEquals(NodeId p, const Cand& c) const;

  // Per node: the parent port and the path word (has=0 is ⊤; entries in
  // a paged VarColumn pool — variable length up to N−1, so a fixed-
  // stride column would cost O(n²) ints).  The raw form is
  // [par, has, len, entries...]; the root's word is ε, its par and has
  // pinned.
  StateArena arena_;
  NodeColumn par_;   // port (root pinned at 0)
  NodeColumn has_;   // 1 iff the word is present (root pinned at 1)
  VarColumn word_;
  std::vector<int> scratch_;  // decode/randomize staging buffer
  int maxDegree_ = 0;
};

}  // namespace ssno

#endif  // SSNO_SPTREE_LEX_DFS_TREE_HPP
