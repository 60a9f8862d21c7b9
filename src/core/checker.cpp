#include "core/checker.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "core/assert.hpp"
#include "core/enabled_cache.hpp"
#include "core/scheduler.hpp"
#include "core/sync_engine.hpp"
#include "mc/properties.hpp"

namespace ssno {
namespace {

/// Mixed-radix index <-> per-node code vector, with delta decoding:
/// decodeDelta rewrites only the nodes whose code changed since the
/// last decode, so the protocol's dirty set (and the EnabledCache fed
/// from it) stays proportional to the diff.  decodeInto is the naive
/// full decode (invalidates every guard), kept for setNaiveExpansion.
class ConfigIndexer {
 public:
  explicit ConfigIndexer(const Protocol& p) {
    const auto n = static_cast<std::size_t>(p.graph().nodeCount());
    radices_.reserve(n);
    weights_.reserve(n);
    total_ = 1;
    overflow_ = false;
    for (NodeId q = 0; q < p.graph().nodeCount(); ++q) {
      const std::uint64_t r = p.localStateCount(q);
      SSNO_EXPECTS(r >= 1);
      radices_.push_back(r);
      weights_.push_back(total_);  // product of radices before q
      if (total_ > UINT64_MAX / r) overflow_ = true;
      if (!overflow_) total_ *= r;
    }
    codes_.resize(n);
  }

  [[nodiscard]] bool overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Code of node q in the most recently decoded index.
  [[nodiscard]] std::uint64_t code(NodeId q) const {
    return codes_[static_cast<std::size_t>(q)];
  }

  /// Index of the configuration that differs from `index` only at q
  /// (exact in mod-2^64 arithmetic since total() fits 64 bits) — the
  /// O(1) replacement for re-encoding all n nodes per successor.
  [[nodiscard]] std::uint64_t successorIndex(std::uint64_t index, NodeId q,
                                             std::uint64_t oldCode,
                                             std::uint64_t newCode) const {
    return index + (newCode - oldCode) * weights_[static_cast<std::size_t>(q)];
  }

  void decodeInto(Protocol& p, std::uint64_t index) {
    codesOf(index);
    p.decodeConfiguration(codes_);
    prev_ = codes_;
  }

  void decodeDelta(Protocol& p, std::uint64_t index) {
    codesOf(index);
    p.decodeConfigurationDelta(codes_, prev_);
  }

  [[nodiscard]] std::uint64_t encodeFrom(const Protocol& p) const {
    std::uint64_t index = 0;
    for (std::size_t q = radices_.size(); q-- > 0;) {
      index = index * radices_[q] + p.encodeNode(static_cast<NodeId>(q));
    }
    return index;
  }

 private:
  void codesOf(std::uint64_t index) {
    for (std::size_t q = 0; q < radices_.size(); ++q) {
      codes_[q] = index % radices_[q];
      index /= radices_[q];
    }
  }

  std::vector<std::uint64_t> radices_;
  std::vector<std::uint64_t> weights_;
  std::vector<std::uint64_t> codes_;  // last decoded index's codes
  std::vector<std::uint64_t> prev_;   // delta-tracking state
  std::uint64_t total_ = 1;
  bool overflow_ = false;
};

std::string describeConfig(const Protocol& p) {
  return mc::describeConfiguration(p);
}

std::string convergenceFailure(Fairness fairness) {
  return fairness == Fairness::kNone
             ? "convergence violated: cycle through illegitimate "
               "configuration:\n"
             : "convergence violated: fair-feasible cycle through "
               "illegitimate configuration:\n";
}

}  // namespace

CheckResult ModelChecker::verifyFullSpace(std::uint64_t maxConfigs,
                                          Fairness fairness) {
  CheckResult res;
  if (sync_ && fairness != Fairness::kNone) {
    res.failure =
        "fairness-aware modes are not supported under synchronous steps";
    return res;
  }
  ConfigIndexer ix(protocol_);
  if (ix.overflow() || ix.total() > maxConfigs) {
    res.failure = "state space too large for exhaustive check";
    return res;
  }
  const int actions = protocol_.actionCount();
  const std::uint64_t total = ix.total();
  if (!mc::fitsLog(total)) {  // configuration indices go into the log
    res.failure = mc::kLogWidthExceeded;
    return res;
  }

  EnabledCache cache(protocol_);
  cache.setForceNaive(naive_);

  std::vector<std::uint8_t> isLegit(total, 0);
  for (std::uint64_t c = 0; c < total; ++c) {
    if (naive_)
      ix.decodeInto(protocol_, c);
    else
      ix.decodeDelta(protocol_, c);
    isLegit[c] = legit_() ? 1 : 0;
  }

  /// Decodes c and snapshots the enabled set as (node, mask) pairs (the
  /// cache's own view is only valid until the next mutation).
  NodeMasks expandBuf;
  auto expand = [&](std::uint64_t c) -> const NodeMasks& {
    if (naive_)
      ix.decodeInto(protocol_, c);
    else
      ix.decodeDelta(protocol_, c);
    expandBuf.clear();
    cache.refreshView().appendNodeMasks(expandBuf);
    return expandBuf;
  };
  /// Successor of the currently decoded c by move m; restores c before
  /// returning.  (A statement writes only its own processor's
  /// variables, so restoring the acted node alone suffices.)
  auto successorOf = [&](std::uint64_t c, const Move& m) {
    const std::uint64_t oldCode = ix.code(m.node);
    protocol_.execute(m.node, m.action);
    const std::uint64_t s =
        naive_ ? ix.encodeFrom(protocol_)
               : ix.successorIndex(c, m.node, oldCode,
                                   protocol_.encodeNode(m.node));
    protocol_.decodeNode(m.node, oldCode);
    return s;
  };
  // Synchronous-successor machinery: a transition executes one
  // simultaneous move set (every enabled processor acts) through the
  // columnar engine — batched snapshot/restore of the acting set, one
  // deferred dirty pass — then patches the mixed-radix index once per
  // actor and rolls the acting set back in place.
  SimultaneousEngine engine(protocol_);
  std::vector<Move> selScratch;
  constexpr std::uint32_t kSyncTag = ~std::uint32_t{0};  // no actor pair
  auto forEachSuccessor = [&](std::uint64_t c, const NodeMasks& enabled,
                              auto&& fn /*(successor, actorPairTag) ->
                                          bool: keep enumerating?*/) {
    bool go = true;
    if (!sync_) {
      forEachMove(enabled, [&](const Move& m) {
        if (!go) return;
        go = fn(successorOf(c, m),
                static_cast<std::uint32_t>(m.node * actions + m.action));
      });
      return;
    }
    forEachSimultaneousSelection(
        enabled, selScratch, [&](std::span<const Move> set) -> bool {
          engine.execute(set);
          std::uint64_t s;
          if (naive_) {
            s = ix.encodeFrom(protocol_);
          } else {
            s = c;
            for (const Move& m : set)
              s = ix.successorIndex(s, m.node, ix.code(m.node),
                                    protocol_.encodeNode(m.node));
          }
          engine.undo();
          go = fn(s, kSyncTag);
          return go;
        });
  };

  // One pass: closure and deadlock at every configuration, and the
  // out-edges of every illegitimate one logged for the convergence
  // analysis — successor configuration indices first, remapped to dense
  // local ids (assigned in configuration order) after the pass.
  mc::TransitionGraph g;
  g.pairCount = static_cast<std::size_t>(protocol_.graph().nodeCount()) *
                static_cast<std::size_t>(actions);
  std::vector<std::uint32_t> localOf(total, mc::TransitionGraph::kLeavesRegion);
  for (std::uint64_t c = 0; c < total; ++c) {
    ++res.configsExplored;
    const NodeMasks& enabled = expand(c);
    if (isLegit[c]) {
      bool closed = true;
      forEachSuccessor(c, enabled, [&](std::uint64_t s, std::uint32_t) {
        if (!isLegit[s]) {
          closed = false;
          return false;  // violation found: stop enumerating
        }
        return true;
      });
      if (!closed) {
        ix.decodeDelta(protocol_, c);
        res.failure = "closure violated; legitimate configuration:\n" +
                      describeConfig(protocol_);
        return res;
      }
      continue;
    }
    if (enabled.empty()) {
      res.failure = "illegitimate terminal (deadlocked) configuration:\n" +
                    describeConfig(protocol_);
      return res;
    }
    localOf[c] = static_cast<std::uint32_t>(g.stateCount());
    forEachSuccessor(c, enabled, [&](std::uint64_t s, std::uint32_t pair) {
      g.edges.push_back({isLegit[s] ? mc::TransitionGraph::kLeavesRegion
                                    : static_cast<std::uint32_t>(s),
                         pair});
      return true;
    });
    if (!mc::fitsLog(g.edges.size())) {
      res.failure = mc::kLogWidthExceeded;
      return res;
    }
    g.endState();
  }
  for (mc::TransitionGraph::Edge& e : g.edges)
    if (e.to != mc::TransitionGraph::kLeavesRegion) e.to = localOf[e.to];

  const std::int64_t bad = mc::findFairCycle(g, fairness);
  if (bad >= 0) {
    const auto at = std::find(localOf.begin(), localOf.end(),
                              static_cast<std::uint32_t>(bad));
    ix.decodeDelta(protocol_,
                   static_cast<std::uint64_t>(at - localOf.begin()));
    res.failure = convergenceFailure(fairness) + describeConfig(protocol_);
    return res;
  }
  res.ok = true;
  return res;
}

CheckResult ModelChecker::verifyReachable(
    const std::vector<std::vector<std::uint64_t>>& seeds,
    std::uint64_t maxConfigs, Fairness fairness) {
  CheckResult res;
  if (sync_ && fairness != Fairness::kNone) {
    res.failure =
        "fairness-aware modes are not supported under synchronous steps";
    return res;
  }
  const int actions = protocol_.actionCount();
  struct VecHash {
    std::size_t operator()(const std::vector<std::uint64_t>& v) const {
      std::uint64_t h = 0xCBF29CE484222325ULL;
      for (std::uint64_t x : v) {
        h ^= x;
        h *= 0x100000001B3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::vector<std::uint64_t>, int, VecHash> id;
  std::vector<std::vector<std::uint64_t>> configs;
  std::vector<std::uint8_t> isLegit;

  EnabledCache cache(protocol_);
  cache.setForceNaive(naive_);
  std::vector<std::uint64_t> cur;  // codes currently decoded in protocol_
  NodeMasks enabledBuf;            // stable snapshot of each refresh
  SimultaneousEngine engine(protocol_);  // synchronous move-set execution
  std::vector<Move> selScratch;
  constexpr std::uint32_t kSyncTag = ~std::uint32_t{0};  // no actor pair

  /// Interns the configuration the protocol currently holds (legitimacy
  /// is evaluated in place — no re-decode).
  auto internCurrent = [&]() -> int {
    auto [it, inserted] = id.try_emplace(protocol_.encodeConfiguration(),
                                         static_cast<int>(configs.size()));
    if (inserted) {
      configs.push_back(it->first);
      isLegit.push_back(legit_() ? 1 : 0);
    }
    return it->second;
  };

  // The out-edges of every illegitimate configuration, logged as it is
  // expanded (successor config ids; remapped to local ids below), and
  // the config id of each logged state.
  mc::TransitionGraph g;
  g.pairCount = static_cast<std::size_t>(protocol_.graph().nodeCount()) *
                static_cast<std::size_t>(actions);
  std::vector<int> logged;
  std::vector<std::uint8_t> explored;

  std::vector<int> frontier;
  for (const auto& s : seeds) {
    protocol_.decodeConfigurationDelta(s, cur);
    frontier.push_back(internCurrent());
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const int c = frontier[head];
    if (explored.size() < configs.size()) explored.resize(configs.size(), 0);
    if (explored[static_cast<std::size_t>(c)]) continue;
    explored[static_cast<std::size_t>(c)] = 1;
    if (naive_) {
      protocol_.decodeConfiguration(configs[static_cast<std::size_t>(c)]);
      cur = configs[static_cast<std::size_t>(c)];
    } else {
      protocol_.decodeConfigurationDelta(configs[static_cast<std::size_t>(c)],
                                         cur);
    }
    enabledBuf.clear();
    cache.refreshView().appendNodeMasks(enabledBuf);
    const bool legit = isLegit[static_cast<std::size_t>(c)] != 0;
    if (enabledBuf.empty() && !legit) {
      res.failure = "illegitimate terminal (deadlocked) configuration:\n" +
                    describeConfig(protocol_);
      return res;
    }
    bool failed = false;
    auto visitChild = [&](int s, std::uint32_t pair) {
      // Called with the protocol restored to c (cur still describes c).
      if (configs.size() > maxConfigs) {
        res.failure = "reachable space exceeded maxConfigs";
        failed = true;
        return;
      }
      const bool childLegit = isLegit[static_cast<std::size_t>(s)] != 0;
      if (legit && !childLegit) {
        res.failure = "closure violated; legitimate configuration:\n" +
                      describeConfig(protocol_);
        failed = true;
        return;
      }
      if (!legit)
        g.edges.push_back({childLegit ? mc::TransitionGraph::kLeavesRegion
                                      : static_cast<std::uint32_t>(s),
                           pair});
      frontier.push_back(s);
    };
    if (sync_) {
      // One successor per simultaneous selection, executed in place by
      // the columnar engine and rolled back via its batched restore.
      forEachSimultaneousSelection(
          enabledBuf, selScratch, [&](std::span<const Move> set) {
            if (failed) return;
            engine.execute(set);
            const int s = internCurrent();
            engine.undo();
            visitChild(s, kSyncTag);
          });
    } else {
      forEachMove(enabledBuf, [&](const Move& m) {
        if (failed) return;
        protocol_.execute(m.node, m.action);
        const int s = internCurrent();
        // Only m.node's variables differ from c, so restoring that one
        // node returns to c for the next move (cur still describes c).
        protocol_.decodeNode(
            m.node,
            configs[static_cast<std::size_t>(c)][static_cast<std::size_t>(
                m.node)]);
        visitChild(s, static_cast<std::uint32_t>(m.node * actions + m.action));
      });
    }
    if (failed) return res;
    if (!legit) {
      if (!mc::fitsLog(g.edges.size())) {
        res.failure = mc::kLogWidthExceeded;
        return res;
      }
      g.endState();
      logged.push_back(c);
    }
  }
  res.configsExplored = configs.size();

  std::vector<std::uint32_t> localOf(configs.size(),
                                     mc::TransitionGraph::kLeavesRegion);
  for (std::size_t i = 0; i < logged.size(); ++i)
    localOf[static_cast<std::size_t>(logged[i])] = static_cast<std::uint32_t>(i);
  for (mc::TransitionGraph::Edge& e : g.edges)
    if (e.to != mc::TransitionGraph::kLeavesRegion) e.to = localOf[e.to];
  const std::int64_t bad = mc::findFairCycle(g, fairness);
  if (bad >= 0) {
    protocol_.decodeConfigurationDelta(
        configs[static_cast<std::size_t>(
            logged[static_cast<std::size_t>(bad)])],
        cur);
    res.failure = convergenceFailure(fairness) + describeConfig(protocol_);
    return res;
  }
  res.ok = true;
  return res;
}

CheckResult ModelChecker::monteCarlo(Daemon& daemon, Rng& rng, int trials,
                                     StepCount maxMoves,
                                     StepCount closureMoves) {
  CheckResult res;
  for (int t = 0; t < trials; ++t) {
    protocol_.randomize(rng);
    Simulator sim(protocol_, daemon, rng);
    const RunStats stats = sim.runUntil([this] { return legit_(); }, maxMoves);
    ++res.configsExplored;
    if (!stats.converged) {
      std::ostringstream msg;
      msg << "trial " << t << " failed to converge within " << maxMoves
          << " moves under " << daemon.name() << " daemon; configuration:\n"
          << describeConfig(protocol_);
      res.failure = msg.str();
      return res;
    }
    // Closure spot check: legitimacy persists.
    StepCount done = 0;
    while (done < closureMoves) {
      const std::vector<Move>& executed = sim.stepOnce();
      if (executed.empty()) break;
      done += static_cast<StepCount>(executed.size());
      if (!legit_()) {
        std::ostringstream msg;
        msg << "trial " << t << ": closure violated after convergence under "
            << daemon.name() << " daemon; configuration:\n"
            << describeConfig(protocol_);
        res.failure = msg.str();
        return res;
      }
    }
  }
  res.ok = true;
  return res;
}

}  // namespace ssno
