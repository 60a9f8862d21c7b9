// mc::findFairCycle against the brute-force oracle (oracle/scc_oracle.hpp)
// on seeded random transition graphs of at most 40 states: self-loops,
// edges that leave the region, states without edges, and actor pairs
// spread over up to 200 ids, so the masks span several words.  The
// verdicts must agree under every fairness mode, a reported state must
// lie in a violating SCC, and relabeling the states must not change the
// verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "core/rng.hpp"
#include "mc/properties.hpp"
#include "oracle/scc_oracle.hpp"

namespace ssno {
namespace {

constexpr int kGraphs = 600;

/// A random log-shaped graph: each state's edges carry distinct actor
/// pairs drawn from a small per-graph pool, so SCCs share protected
/// pairs often enough for both fair verdicts to occur.
mc::TransitionGraph randomGraph(Rng& rng) {
  mc::TransitionGraph g;
  static constexpr std::array<std::size_t, 5> kPairCounts = {3, 64, 65, 130,
                                                             200};
  g.pairCount = kPairCounts[static_cast<std::size_t>(rng.below(5))];
  std::vector<std::uint32_t> pool(static_cast<std::size_t>(rng.between(
      1, std::min(8, static_cast<int>(g.pairCount)))));
  for (std::uint32_t& pair : pool)
    pair = static_cast<std::uint32_t>(
        rng.below(static_cast<int>(g.pairCount)));
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  const int n = rng.between(1, 40);
  const int leaveOneIn = rng.between(2, 12);
  for (int v = 0; v < n; ++v) {
    std::vector<std::uint32_t> pairs = pool;
    for (std::size_t i = pairs.size(); i > 1; --i)
      std::swap(pairs[i - 1], pairs[static_cast<std::size_t>(
                                  rng.below(static_cast<int>(i)))]);
    pairs.resize(static_cast<std::size_t>(
        rng.between(0, static_cast<int>(pairs.size()))));
    for (const std::uint32_t pair : pairs) {
      std::uint32_t to = static_cast<std::uint32_t>(rng.below(n));
      if (rng.below(leaveOneIn) == 0)
        to = mc::TransitionGraph::kLeavesRegion;
      else if (rng.below(8) == 0)
        to = static_cast<std::uint32_t>(v);  // self-loop
      g.edges.push_back({to, pair});
    }
    g.endState();
  }
  return g;
}

TEST(FairCycleOracle, VerdictsAndReportedStatesAgreeOnRandomGraphs) {
  std::array<std::array<int, 2>, 3> seen{};  // [mode][converges]
  for (int seed = 1; seed <= kGraphs; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const mc::TransitionGraph g = randomGraph(rng);
    std::vector<std::uint32_t> order(g.stateCount());
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.below(static_cast<int>(i)))]);
    const mc::TransitionGraph relabeled = g.permuted(order);
    for (const Fairness mode : {Fairness::kNone, Fairness::kWeaklyFair,
                                Fairness::kStronglyFair}) {
      const oracle::FairnessVerdict truth =
          oracle::bruteForceFairness(g, mode);
      const std::int64_t bad = mc::findFairCycle(g, mode);
      const auto m = static_cast<std::size_t>(mode);
      ++seen[m][truth.converges() ? 1 : 0];
      ASSERT_EQ(bad < 0, truth.converges())
          << "seed " << seed << " mode " << m;
      if (bad >= 0) {
        EXPECT_TRUE(truth.violating[static_cast<std::size_t>(bad)])
            << "seed " << seed << " mode " << m << " state " << bad;
      }
      const std::int64_t badRelabeled = mc::findFairCycle(relabeled, mode);
      EXPECT_EQ(badRelabeled < 0, bad < 0) << "seed " << seed;
      if (badRelabeled >= 0) {
        EXPECT_TRUE(truth.violating[order[static_cast<std::size_t>(
            badRelabeled)]])
            << "seed " << seed << " mode " << m;
      }
    }
  }
  // The generator must exercise both verdicts under every mode.
  for (std::size_t m = 0; m < seen.size(); ++m)
    for (int converges = 0; converges < 2; ++converges)
      EXPECT_GE(seen[m][static_cast<std::size_t>(converges)], kGraphs / 20)
          << "mode " << m << " converges=" << converges;
}

TEST(FairCycleOracle, EmptyAndEdgelessGraphsConverge) {
  mc::TransitionGraph g;
  EXPECT_EQ(mc::findFairCycle(g, Fairness::kWeaklyFair), -1);
  g.pairCount = 2;
  g.edges.push_back({mc::TransitionGraph::kLeavesRegion, 1});
  g.endState();
  g.endState();  // a state without edges
  for (const Fairness mode : {Fairness::kNone, Fairness::kWeaklyFair,
                              Fairness::kStronglyFair})
    EXPECT_EQ(mc::findFairCycle(g, mode), -1);
}

}  // namespace
}  // namespace ssno
