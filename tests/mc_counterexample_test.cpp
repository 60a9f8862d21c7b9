// Counterexample stability of the parallel checker: for every violating
// case below, the failure text and the trace are pinned as digests.
// They must not move with the thread count, with the disk tier, or with
// any change to how the convergence pass stores the illegitimate region:
// a counterexample is part of the checker's output, not an artefact of
// its bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "dftc/dftc.hpp"
#include "exp/canon.hpp"
#include "mc/explorer.hpp"
#include "orientation/dftno.hpp"
#include "toy_protocols.hpp"

namespace ssno {
namespace {

struct Case {
  std::string name;
  mc::ParallelChecker::Factory factory;
  mc::ParallelChecker::Legit legit;
  Fairness fairness = Fairness::kNone;
  bool synchronous = false;
  /// Seed configurations for checkReachable; empty = checkFullSpace.
  std::vector<std::vector<std::uint64_t>> seeds;
  std::string kind;    ///< substring the failure text must contain
  std::string digest;  ///< fnv1a128 of failure text and trace
};

mc::ParallelChecker::Factory dftnoPaperGuard() {
  return [] {
    return std::make_unique<Dftno>(Graph::path(2),
                                   EdgeLabelGuard::kPaperFaithful);
  };
}

bool dftnoLegit(Protocol& p) { return static_cast<Dftno&>(p).isLegitimate(); }
bool dftcLegit(Protocol& p) { return static_cast<Dftc&>(p).isLegitimate(); }
bool oscillateLegit(Protocol& p) {
  return static_cast<OscillateProtocol&>(p).allZero();
}

mc::ParallelChecker::Factory oscillatePath3() {
  return [] { return std::make_unique<OscillateProtocol>(Graph::path(3)); };
}

/// DESIGN.md deviation note 6: L_TC ∧ SP1 ∧ SP2 is not closed.
bool dftnoNaiveSpec(Protocol& p) {
  auto& dftno = static_cast<Dftno&>(p);
  return dftno.substrateLegitimate() && dftno.satisfiesSpecNow();
}

/// mc_test's two-node closure toy, with the predicate narrowed to
/// v0 = 1: under synchronous steps every move set zeroes all enabled
/// nodes at once, so the toy's own predicate (which admits all-zero) is
/// closed there.  Here each legitimate configuration steps to the
/// illegitimate, deadlocked all-zero one.
bool zeroV0IsOne(Protocol& p) {
  return static_cast<ZeroProtocol&>(p).value(0) == 1;
}

mc::ParallelChecker::Factory stuckPath3() {
  return [] { return std::make_unique<StuckProtocol>(Graph::path(3)); };
}
bool stuckLegit(Protocol& p) {
  return static_cast<StuckProtocol&>(p).allZero();
}

std::vector<Case> violatingCases() {
  return {
      {"dftno-paper-guard/path:2 weak", dftnoPaperGuard(), dftnoLegit,
       Fairness::kWeaklyFair, false, {}, "fair-feasible cycle",
       "5be0278994dd50dc4558df581dc14f05"},
      {"dftno-paper-guard/path:2 none", dftnoPaperGuard(), dftnoLegit,
       Fairness::kNone, false, {}, "cycle through illegitimate",
       "9efbada575ba354919d1244f677c8c69"},
      {"dftc/ring:3 none",
       [] { return std::make_unique<Dftc>(Graph::ring(3)); }, dftcLegit,
       Fairness::kNone, false, {}, "cycle through illegitimate",
       "d116ff136d0678b67b23e9e49eb52ca1"},
      {"oscillate/path:3 synchronous", oscillatePath3(), oscillateLegit,
       Fairness::kNone, true, {}, "cycle through illegitimate",
       "24c17e8c0ff8c23aa0fba48d78ced4f1"},
      {"oscillate/path:3 none", oscillatePath3(), oscillateLegit,
       Fairness::kNone, false, {}, "cycle through illegitimate",
       "24c17e8c0ff8c23aa0fba48d78ced4f1"},
      {"oscillate/path:3 weak", oscillatePath3(), oscillateLegit,
       Fairness::kWeaklyFair, false, {}, "fair-feasible cycle",
       "c804aba8c6c3b8c64de1f9592e46730d"},
      // Closure and deadlock: the full-space check picks the reported
      // configuration among every violating one.
      {"dftno/path:2 naive spec predicate weak",
       [] { return std::make_unique<Dftno>(Graph::path(2)); }, dftnoNaiveSpec,
       Fairness::kWeaklyFair, false, {}, "closure violated",
       "c68b0ebd0c676658f5a224f61f92419f"},
      {"zero/path:2 v0=1 synchronous",
       [] { return std::make_unique<ZeroProtocol>(Graph::path(2), 2); },
       zeroV0IsOne, Fairness::kNone, true, {}, "closure violated",
       "9adcc9dfb2dae1c2de1966b0e09117f8"},
      {"stuck/path:3 none", stuckPath3(), stuckLegit, Fairness::kNone, false,
       {}, "terminal (deadlocked)", "f1b3a6836a3b5e28728e50b5a008bccc"},
      {"stuck/path:3 synchronous", stuckPath3(), stuckLegit, Fairness::kNone,
       true, {}, "terminal (deadlocked)", "f1b3a6836a3b5e28728e50b5a008bccc"},
      // From one seed the cycle lies off depth 0, so the traces have
      // steps to pin.
      {"oscillate/path:3 synchronous from 1,1,1", oscillatePath3(),
       oscillateLegit, Fairness::kNone, true, {{1, 1, 1}},
       "cycle through illegitimate", "60ff1251c5a00818b25fc5bd6ccb81d7"},
      {"oscillate/path:3 none from 1,1,1", oscillatePath3(), oscillateLegit,
       Fairness::kNone, false, {{1, 1, 1}}, "cycle through illegitimate",
       "ea3b1ccdc23cf8de4331cef2a7946f11"},
      {"oscillate/path:3 weak from 1,1,1", oscillatePath3(), oscillateLegit,
       Fairness::kWeaklyFair, false, {{1, 1, 1}}, "fair-feasible cycle",
       "7ad29b61a695b5c55de2b275d16a2885"},
  };
}

std::string digestOf(const mc::Result& r) {
  std::string bytes = r.failure;
  for (const std::string& line : r.trace) {
    bytes += '\x1e';
    bytes += line;
  }
  return exp::fnv1a128(bytes).hex();
}

TEST(McCounterexample, FailureTextAndTraceArePinned) {
  for (const Case& c : violatingCases()) {
    for (const std::uint64_t spill : {std::uint64_t{0}, std::uint64_t{3}}) {
      for (const int threads : {1, 2, 8}) {
        mc::Options opt;
        opt.threads = threads;
        opt.fairness = c.fairness;
        opt.synchronousSteps = c.synchronous;
        opt.spillCapacity = spill;
        mc::ParallelChecker checker(c.factory, c.legit);
        const mc::Result r = c.seeds.empty()
                                 ? checker.checkFullSpace(opt)
                                 : checker.checkReachable(c.seeds, opt);
        const std::string at = c.name + " @" + std::to_string(threads) +
                               " threads, spill " + std::to_string(spill);
        EXPECT_FALSE(r.ok) << at;
        EXPECT_NE(r.failure.find(c.kind), std::string::npos)
            << at << ": " << r.failure;
        EXPECT_FALSE(r.trace.empty()) << at;
        EXPECT_EQ(digestOf(r), c.digest) << at << "\n" << r.failure;
      }
    }
  }
}

}  // namespace
}  // namespace ssno
