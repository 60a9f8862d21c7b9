// Explorer-vs-oracle equivalence: every protocol × tiny topology is
// verified by the src/mc explorer at 1, 2 and 8 threads and by the
// brute-force exploration oracle (tests/oracle/explore_oracle.hpp); they
// must agree on the verdict and the failure kind, and on passing cases
// on the states explored and the transitions.  The explorer's full
// result — verdict, failure text, counterexample trace, state and
// frontier counts — must be bit-identical for 1 and N threads.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/graph.hpp"
#include "dftc/dftc.hpp"
#include "mc/explorer.hpp"
#include "oracle/explore_oracle.hpp"
#include "orientation/dftno.hpp"
#include "toy_protocols.hpp"

namespace ssno {
namespace {

struct Case {
  std::string name;
  mc::ParallelChecker::Factory factory;
  mc::ParallelChecker::Legit legit;
  Fairness fairness = Fairness::kNone;
  /// Expected failure kind substring; empty = must pass.
  std::string expectKind;
};

std::vector<Case> equivalenceCases() {
  std::vector<Case> cases;
  cases.push_back(
      {"zero/path:3",
       [] { return std::make_unique<ZeroProtocol>(Graph::path(3), 3); },
       [](Protocol& p) { return static_cast<ZeroProtocol&>(p).allZero(); },
       Fairness::kNone,
       ""});
  cases.push_back(
      {"oscillate/path:2",
       [] { return std::make_unique<OscillateProtocol>(Graph::path(2)); },
       [](Protocol& p) {
         return static_cast<OscillateProtocol&>(p).allZero();
       },
       Fairness::kNone,
       "cycle"});
  cases.push_back(
      {"stuck/path:2",
       [] { return std::make_unique<StuckProtocol>(Graph::path(2)); },
       [](Protocol& p) { return static_cast<StuckProtocol&>(p).allZero(); },
       Fairness::kNone,
       "terminal"});
  for (const auto& [label, graph] :
       {std::pair<const char*, Graph>{"dftc/path:2", Graph::path(2)},
        {"dftc/path:3", Graph::path(3)},
        {"dftc/ring:3", Graph::ring(3)}}) {
    cases.push_back(
        {label,
         [graph] { return std::make_unique<Dftc>(graph); },
         [](Protocol& p) { return static_cast<Dftc&>(p).isLegitimate(); },
         Fairness::kWeaklyFair,
         ""});
  }
  cases.push_back(
      {"dftno/path:2",
       [] { return std::make_unique<Dftno>(Graph::path(2)); },
       [](Protocol& p) { return static_cast<Dftno&>(p).isLegitimate(); },
       Fairness::kWeaklyFair,
       ""});
  // Erratum 4: the paper-faithful edge-label guard diverges under weak
  // fairness — the explorer and the oracle must agree on the failure.
  cases.push_back(
      {"dftno-paper-guard/path:2",
       [] {
         return std::make_unique<Dftno>(Graph::path(2),
                                        EdgeLabelGuard::kPaperFaithful);
       },
       [](Protocol& p) { return static_cast<Dftno&>(p).isLegitimate(); },
       Fairness::kWeaklyFair,
       "fair-feasible cycle"});
  return cases;
}

oracle::ExploreVerdict oracleVerdict(const Case& c) {
  const std::unique_ptr<Protocol> protocol = c.factory();
  return oracle::bruteForceExplore(*protocol, c.legit,
                                   oracle::allConfigurations(*protocol),
                                   c.fairness, /*synchronous=*/false);
}

mc::Result parallelVerdict(const Case& c, int threads) {
  mc::ParallelChecker pc(c.factory, c.legit);
  mc::Options opt;
  opt.threads = threads;
  opt.fairness = c.fairness;
  return pc.checkFullSpace(opt);
}

TEST(McEquivalence, VerdictsMatchOracleOnFullSpace) {
  for (const Case& c : equivalenceCases()) {
    const oracle::ExploreVerdict truth = oracleVerdict(c);
    EXPECT_EQ(truth.ok(), c.expectKind.empty()) << c.name;
    for (const int threads : {1, 2, 8}) {
      const mc::Result parallel = parallelVerdict(c, threads);
      EXPECT_EQ(oracle::disagreement(parallel, truth), "")
          << c.name << " @" << threads;
      if (c.expectKind.empty()) {
        EXPECT_TRUE(parallel.ok) << c.name << ": " << parallel.failure;
      } else {
        EXPECT_NE(parallel.failure.find(c.expectKind), std::string::npos)
            << c.name << ": " << parallel.failure;
      }
    }
  }
}

TEST(McEquivalence, ParallelResultsBitIdenticalAcrossThreadCounts) {
  for (const Case& c : equivalenceCases()) {
    const mc::Result one = parallelVerdict(c, 1);
    for (int threads : {2, 8}) {
      const mc::Result many = parallelVerdict(c, threads);
      EXPECT_EQ(one.ok, many.ok) << c.name;
      EXPECT_EQ(one.failure, many.failure) << c.name << " @" << threads;
      EXPECT_EQ(one.trace, many.trace) << c.name << " @" << threads;
      EXPECT_EQ(one.statesExplored, many.statesExplored) << c.name;
      EXPECT_EQ(one.transitions, many.transitions) << c.name;
      EXPECT_EQ(one.peakFrontier, many.peakFrontier) << c.name;
      EXPECT_EQ(one.depthReached, many.depthReached) << c.name;
    }
  }
}

TEST(McEquivalence, ReachableVerdictsMatchAndTracesAreThreadFree) {
  // Reachable mode: the 1-fault recovery cone of the clean dftc
  // configuration on a ring (per-seed single-node corruptions).
  const Graph g = Graph::ring(4);
  Dftc clean(g);
  clean.resetClean();
  const std::vector<std::uint64_t> base = clean.encodeConfiguration();
  std::vector<std::vector<std::uint64_t>> seeds;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (std::uint64_t code = 0; code < clean.localStateCount(p); ++code) {
      std::vector<std::uint64_t> seed = base;
      seed[static_cast<std::size_t>(p)] = code;
      seeds.push_back(std::move(seed));
    }
  }

  Dftc ref(g);
  const oracle::ExploreVerdict truth = oracle::bruteForceExplore(
      ref, [](Protocol& p) { return static_cast<Dftc&>(p).isLegitimate(); },
      seeds, Fairness::kWeaklyFair, /*synchronous=*/false);
  EXPECT_TRUE(truth.ok());

  auto factory = [&g] { return std::make_unique<Dftc>(g); };
  auto legit = [](Protocol& p) {
    return static_cast<Dftc&>(p).isLegitimate();
  };
  mc::ParallelChecker pc(factory, legit);
  mc::Options opt;
  opt.fairness = Fairness::kWeaklyFair;
  opt.threads = 1;
  const mc::Result one = pc.checkReachable(seeds, opt);
  EXPECT_EQ(oracle::disagreement(one, truth), "");
  EXPECT_TRUE(one.ok) << one.failure;

  for (const int threads : {2, 8}) {
    opt.threads = threads;
    const mc::Result many = pc.checkReachable(seeds, opt);
    EXPECT_EQ(oracle::disagreement(many, truth), "") << "@" << threads;
    EXPECT_EQ(one.ok, many.ok);
    EXPECT_EQ(one.failure, many.failure);
    EXPECT_EQ(one.trace, many.trace);
    EXPECT_EQ(one.statesExplored, many.statesExplored);
    EXPECT_EQ(one.transitions, many.transitions);
    EXPECT_EQ(one.peakFrontier, many.peakFrontier);
  }
}

}  // namespace
}  // namespace ssno
