// Small synthetic protocols used to test the framework itself (daemons,
// simulator, fault injection, model checker) independently of the real
// algorithms.
#ifndef SSNO_TESTS_TOY_PROTOCOLS_HPP
#define SSNO_TESTS_TOY_PROTOCOLS_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/state_arena.hpp"

namespace ssno {

/// One value per node, v ∈ 0..domain−1, in a single declared column.
class OneValueProtocol : public Protocol {
 public:
  [[nodiscard]] int actionCount() const override { return 1; }
  [[nodiscard]] std::string dumpNode(NodeId p) const override {
    return "v=" + std::to_string(v_[p]);
  }
  [[nodiscard]] bool allZero() const {
    return std::ranges::all_of(v_.data(), [](int v) { return v == 0; });
  }
  [[nodiscard]] int value(NodeId p) const { return v_[p]; }

 protected:
  OneValueProtocol(Graph g, int domain, int initial)
      : Protocol(std::move(g)),
        arena_(graph(), DigitOrder::kLeastFirst),
        v_(arena_.nodeColumn({.base = domain})) {
    addArena(arena_);
    v_.fill(initial);
  }

  StateArena arena_;
  NodeColumn v_;
};

/// Trivially self-stabilizing: every node zeroes its value.
/// Legitimate = all values zero; silent there.
class ZeroProtocol final : public OneValueProtocol {
 public:
  ZeroProtocol(Graph g, int domain)
      : OneValueProtocol(std::move(g), domain, domain - 1) {}

  [[nodiscard]] std::string actionName(int) const override { return "Zero"; }
  [[nodiscard]] bool enabled(NodeId p, int a) const override {
    return a == 0 && v_[p] != 0;
  }
  void doExecute(NodeId p, int) override { v_[p] = 0; }

  void setValue(NodeId p, int v) {
    v_[p] = v;
    dirtyNeighborhood(p);  // honor the dirtying contract for direct writes
  }
};

/// Broken on purpose: a node with v=1 flips forever between 1 and 2 —
/// a cycle entirely inside the illegitimate region (legit = all zero).
class OscillateProtocol final : public OneValueProtocol {
 public:
  explicit OscillateProtocol(Graph g) : OneValueProtocol(std::move(g), 3, 1) {}
  [[nodiscard]] std::string actionName(int) const override { return "Flip"; }
  [[nodiscard]] bool enabled(NodeId p, int a) const override {
    return a == 0 && v_[p] != 0;
  }
  void doExecute(NodeId p, int) override { v_[p] = v_[p] == 1 ? 2 : 1; }
};

/// Broken on purpose: nothing is ever enabled, so any non-zero value is
/// an illegitimate terminal configuration (a deadlock).
class StuckProtocol final : public OneValueProtocol {
 public:
  explicit StuckProtocol(Graph g) : OneValueProtocol(std::move(g), 2, 0) {}
  [[nodiscard]] std::string actionName(int) const override { return "Never"; }
  [[nodiscard]] bool enabled(NodeId, int) const override { return false; }
  void doExecute(NodeId, int) override {}
};

/// A fixed enabled set: setMoves() enables exactly the given moves, and
/// executing a move changes nothing, so the set stays as given.  Lets
/// daemon tests hand a production daemon an EnabledView with any
/// content through a real EnabledCache.  It has no per-node state.
class FixedMovesProtocol final : public Protocol {
 public:
  FixedMovesProtocol(Graph g, int actions)
      : Protocol(std::move(g)), actions_(actions) {
    masks_.assign(static_cast<std::size_t>(graph().nodeCount()), 0);
  }
  void setMoves(const std::vector<Move>& moves) {
    std::fill(masks_.begin(), masks_.end(), 0);
    for (const Move& m : moves)
      masks_[static_cast<std::size_t>(m.node)] |= std::uint64_t{1}
                                                  << m.action;
    dirtyAll();
  }

  [[nodiscard]] int actionCount() const override { return actions_; }
  [[nodiscard]] std::string actionName(int) const override { return "Nop"; }
  [[nodiscard]] bool enabled(NodeId p, int a) const override {
    return (masks_[static_cast<std::size_t>(p)] >> a) & 1;
  }
  void doExecute(NodeId, int) override {}
  [[nodiscard]] std::string dumpNode(NodeId) const override { return ""; }

 private:
  int actions_;
  std::vector<std::uint64_t> masks_;
};

}  // namespace ssno

#endif  // SSNO_TESTS_TOY_PROTOCOLS_HPP
