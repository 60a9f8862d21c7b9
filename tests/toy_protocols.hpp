// Small synthetic protocols used to test the framework itself (daemons,
// simulator, fault injection, model checker) independently of the real
// algorithms.
#ifndef SSNO_TESTS_TOY_PROTOCOLS_HPP
#define SSNO_TESTS_TOY_PROTOCOLS_HPP

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocol.hpp"

namespace ssno {

/// Trivially self-stabilizing: every node zeroes its value.
/// Legitimate = all values zero; silent there.
class ZeroProtocol final : public Protocol {
 public:
  ZeroProtocol(Graph g, int domain)
      : Protocol(std::move(g)), domain_(domain) {
    v_.assign(static_cast<std::size_t>(graph().nodeCount()), domain_ - 1);
  }

  [[nodiscard]] int actionCount() const override { return 1; }
  [[nodiscard]] std::string actionName(int) const override { return "Zero"; }
  [[nodiscard]] bool enabled(NodeId p, int a) const override {
    return a == 0 && v_[static_cast<std::size_t>(p)] != 0;
  }
  void doExecute(NodeId p, int) override { v_[static_cast<std::size_t>(p)] = 0; }
  void doRandomizeNode(NodeId p, Rng& rng) override {
    v_[static_cast<std::size_t>(p)] = rng.below(domain_);
  }
  [[nodiscard]] std::uint64_t localStateCount(NodeId) const override {
    return static_cast<std::uint64_t>(domain_);
  }
  [[nodiscard]] std::uint64_t encodeNode(NodeId p) const override {
    return static_cast<std::uint64_t>(v_[static_cast<std::size_t>(p)]);
  }
  void doDecodeNode(NodeId p, std::uint64_t code) override {
    v_[static_cast<std::size_t>(p)] = static_cast<int>(code);
  }
  [[nodiscard]] std::vector<int> rawNode(NodeId p) const override {
    return {v_[static_cast<std::size_t>(p)]};
  }
  void doSetRawNode(NodeId p, std::span<const int> values) override {
    v_[static_cast<std::size_t>(p)] = values[0];
  }
  [[nodiscard]] std::string dumpNode(NodeId p) const override {
    std::ostringstream out;
    out << "v=" << v_[static_cast<std::size_t>(p)];
    return out.str();
  }

  [[nodiscard]] bool allZero() const {
    for (int v : v_)
      if (v != 0) return false;
    return true;
  }
  [[nodiscard]] int value(NodeId p) const {
    return v_[static_cast<std::size_t>(p)];
  }
  void setValue(NodeId p, int v) {
    v_[static_cast<std::size_t>(p)] = v;
    dirtyNeighborhood(p);  // honor the dirtying contract for direct writes
  }

 private:
  int domain_;
  std::vector<int> v_;
};

/// Broken on purpose: a node with v=1 flips forever between 1 and 2 —
/// a cycle entirely inside the illegitimate region (legit = all zero).
class OscillateProtocol final : public Protocol {
 public:
  explicit OscillateProtocol(Graph g) : Protocol(std::move(g)) {
    v_.assign(static_cast<std::size_t>(graph().nodeCount()), 1);
  }
  [[nodiscard]] int actionCount() const override { return 1; }
  [[nodiscard]] std::string actionName(int) const override { return "Flip"; }
  [[nodiscard]] bool enabled(NodeId p, int a) const override {
    return a == 0 && v_[static_cast<std::size_t>(p)] != 0;
  }
  void doExecute(NodeId p, int) override {
    auto& v = v_[static_cast<std::size_t>(p)];
    v = (v == 1) ? 2 : 1;
  }
  void doRandomizeNode(NodeId p, Rng& rng) override {
    v_[static_cast<std::size_t>(p)] = rng.below(3);
  }
  [[nodiscard]] std::uint64_t localStateCount(NodeId) const override {
    return 3;
  }
  [[nodiscard]] std::uint64_t encodeNode(NodeId p) const override {
    return static_cast<std::uint64_t>(v_[static_cast<std::size_t>(p)]);
  }
  void doDecodeNode(NodeId p, std::uint64_t code) override {
    v_[static_cast<std::size_t>(p)] = static_cast<int>(code);
  }
  [[nodiscard]] std::vector<int> rawNode(NodeId p) const override {
    return {v_[static_cast<std::size_t>(p)]};
  }
  void doSetRawNode(NodeId p, std::span<const int> values) override {
    v_[static_cast<std::size_t>(p)] = values[0];
  }
  [[nodiscard]] std::string dumpNode(NodeId p) const override {
    return "v=" + std::to_string(v_[static_cast<std::size_t>(p)]);
  }
  [[nodiscard]] bool allZero() const {
    for (int v : v_)
      if (v != 0) return false;
    return true;
  }

 private:
  std::vector<int> v_;
};

/// Broken on purpose: nothing is ever enabled, so any non-zero value is
/// an illegitimate terminal configuration (a deadlock).
class StuckProtocol final : public Protocol {
 public:
  explicit StuckProtocol(Graph g) : Protocol(std::move(g)) {
    v_.assign(static_cast<std::size_t>(graph().nodeCount()), 0);
  }
  [[nodiscard]] int actionCount() const override { return 1; }
  [[nodiscard]] std::string actionName(int) const override { return "Never"; }
  [[nodiscard]] bool enabled(NodeId, int) const override { return false; }
  void doExecute(NodeId, int) override {}
  void doRandomizeNode(NodeId p, Rng& rng) override {
    v_[static_cast<std::size_t>(p)] = rng.below(2);
  }
  [[nodiscard]] std::uint64_t localStateCount(NodeId) const override {
    return 2;
  }
  [[nodiscard]] std::uint64_t encodeNode(NodeId p) const override {
    return static_cast<std::uint64_t>(v_[static_cast<std::size_t>(p)]);
  }
  void doDecodeNode(NodeId p, std::uint64_t code) override {
    v_[static_cast<std::size_t>(p)] = static_cast<int>(code);
  }
  [[nodiscard]] std::vector<int> rawNode(NodeId p) const override {
    return {v_[static_cast<std::size_t>(p)]};
  }
  void doSetRawNode(NodeId p, std::span<const int> values) override {
    v_[static_cast<std::size_t>(p)] = values[0];
  }
  [[nodiscard]] std::string dumpNode(NodeId p) const override {
    return "v=" + std::to_string(v_[static_cast<std::size_t>(p)]);
  }
  [[nodiscard]] bool allZero() const {
    for (int v : v_)
      if (v != 0) return false;
    return true;
  }

 private:
  std::vector<int> v_;
};

/// A fixed enabled set: setMoves() enables exactly the given moves, and
/// executing a move changes nothing, so the set stays as given.  Lets
/// daemon tests hand a production daemon an EnabledView with any
/// content through a real EnabledCache.
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
  void doRandomizeNode(NodeId, Rng&) override {}
  [[nodiscard]] std::uint64_t localStateCount(NodeId) const override {
    return 1;
  }
  [[nodiscard]] std::uint64_t encodeNode(NodeId) const override { return 0; }
  void doDecodeNode(NodeId, std::uint64_t) override {}
  [[nodiscard]] std::vector<int> rawNode(NodeId) const override { return {}; }
  void doSetRawNode(NodeId, std::span<const int>) override {}
  [[nodiscard]] std::string dumpNode(NodeId) const override { return ""; }

 private:
  int actions_;
  std::vector<std::uint64_t> masks_;
};

}  // namespace ssno

#endif  // SSNO_TESTS_TOY_PROTOCOLS_HPP
