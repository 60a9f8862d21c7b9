// verify: mc::ParallelChecker at one thread, to a verdict.  Phase A is
// checkReachable on the DFTC 1-fault cone of ring:10 under weak
// fairness (seen-set, codec and explorer; the fair post-pass).  Phase B
// is a Fairness::kNone check — DFTC's full space on path:4 under
// synchronous semantics — which runs the acyclicity post-pass.  The
// seed shuffles the order of the fault-cone seed list; the explored
// state space, and so every count, must not depend on it.
#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <sstream>

#include "core/checker.hpp"
#include "dftc/dftc.hpp"
#include "exp/topology.hpp"
#include "mc/explorer.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

struct Check {
  std::string label;
  std::shared_ptr<const ssno::Graph> graph;
  bool reachable = false;  // checkReachable over `seeds`, else full space
  ssno::Fairness fairness = ssno::Fairness::kNone;
  bool synchronous = false;
  std::vector<std::vector<std::uint64_t>> seeds;
  std::uint64_t expectStates = 0;
  std::uint64_t expectTransitions = 0;
  /// Distinct seed configurations.  mc_states_total counts the states
  /// levels add, so its delta per check is statesExplored minus these.
  std::uint64_t seedStates = 0;
};

struct CheckPair {
  Check fair;
  Check none;
};

/// Every single-node corruption of the clean DFTC configuration, in an
/// order shuffled by the run seed.
std::vector<std::vector<std::uint64_t>> faultCone(const ssno::Graph& g,
                                                  std::uint64_t seed) {
  ssno::Dftc clean(g);
  clean.resetClean();
  const std::vector<std::uint64_t> base = clean.encodeConfiguration();
  std::vector<std::vector<std::uint64_t>> seeds;
  for (ssno::NodeId p = 0; p < g.nodeCount(); ++p)
    for (std::uint64_t code = 0; code < clean.localStateCount(p); ++code) {
      std::vector<std::uint64_t> s = base;
      s[static_cast<std::size_t>(p)] = code;
      seeds.push_back(std::move(s));
    }
  std::mt19937_64 shuffle(seed);
  std::shuffle(seeds.begin(), seeds.end(), shuffle);
  return seeds;
}

CheckPair setUp(const Args& args) {
  CheckPair c;
  c.fair.label = args.tiny ? "dftc ring:5 1-fault cone, weak fairness"
                           : "dftc ring:10 1-fault cone, weak fairness";
  c.fair.graph = std::make_shared<const ssno::Graph>(
      ssno::Graph::ring(args.tiny ? 5 : 10));
  c.fair.reachable = true;
  c.fair.fairness = ssno::Fairness::kWeaklyFair;
  c.fair.seeds = faultCone(*c.fair.graph, args.seed);
  c.fair.seedStates = std::set<std::vector<std::uint64_t>>(
                          c.fair.seeds.begin(), c.fair.seeds.end())
                          .size();
  if (!args.tiny) {
    // Recorded when the benchmark was added; the cone does not depend on
    // the seed.
    c.fair.expectStates = 325'427;
    c.fair.expectTransitions = 736'089;
  }
  c.none.label = args.tiny ? "dftc path:3 full space, synchronous, no fairness"
                           : "dftc path:4 full space, synchronous, no fairness";
  c.none.graph = std::make_shared<const ssno::Graph>(
      ssno::Graph::path(args.tiny ? 3 : 4));
  c.none.synchronous = true;
  // The full space is the product of the local state counts.
  ssno::Dftc probe(*c.none.graph);
  c.none.expectStates = 1;
  for (ssno::NodeId p = 0; p < c.none.graph->nodeCount(); ++p)
    c.none.expectStates *= probe.localStateCount(p);
  c.none.expectTransitions = args.tiny ? 3'282 : 391'488;
  c.none.seedStates = c.none.expectStates;
  return c;
}

ssno::mc::Result runCheck(const Check& c) {
  const ssno::Graph& g = *c.graph;
  ssno::mc::ParallelChecker checker(
      [&g] { return std::unique_ptr<ssno::Protocol>(new ssno::Dftc(g)); },
      [](ssno::Protocol& p) { return static_cast<ssno::Dftc&>(p).isLegitimate(); });
  ssno::mc::Options opt;
  opt.threads = 1;
  opt.fairness = c.fairness;
  opt.synchronousSteps = c.synchronous;
  return c.reachable ? checker.checkReachable(c.seeds, opt)
                     : checker.checkFullSpace(opt);
}

/// Verdict ok and exact counts; the first result of a run also fixes
/// the expected counts where none were recorded.
void verifyResult(Checks& checks, Check& c, const ssno::mc::Result& r,
                  bool corruptCount, bool corruptVerdict) {
  if (c.expectStates == 0) c.expectStates = r.statesExplored;
  if (c.expectTransitions == 0) c.expectTransitions = r.transitions;
  const std::uint64_t states = c.expectStates + (corruptCount ? 1 : 0);
  const bool verdict = corruptVerdict ? !r.ok : r.ok;
  checks.op(verdict && r.statesExplored == states &&
                r.transitions == c.expectTransitions,
            c.label + ": verdict " + (r.ok ? "ok" : r.failure) + ", states " +
                std::to_string(r.statesExplored) + " (expected " +
                std::to_string(states) + "), transitions " +
                std::to_string(r.transitions) + " (expected " +
                std::to_string(c.expectTransitions) + ")");
}

/// Seed generation is cheap, so it is timed this many times per rep.
constexpr int kSetUpsPerRep = 30;

int repCount(const Args& args) {
  if (args.tiny) return 2;
  return std::max(2, args.seconds * 3 / 5);
}

}  // namespace

EndToEnd verifyRun(const Args& args, Checks& checks) {
  EndToEnd out;
  // Set-up: seed generation, kSetUpsPerRep times before every rep.  One
  // warm-up check at the self-test size (first-touch allocation and code
  // paths) follows the first, untimed.
  CheckPair sampled;
  const auto setUpBurst = [&] {
    for (int k = 0; k < kSetUpsPerRep; ++k) {
      sampled = CheckPair{};
      timeSetUp(out.setup, "seed generation",
                [&] { sampled = setUp(args); });
    }
  };
  setUpBurst();
  CheckPair c = sampled;
  Args warm = args;
  warm.tiny = true;
  checks.op(runCheck(setUp(warm).fair).ok, "warm-up check failed");
  const std::uint64_t statesBefore = counterValue("mc_states_total");
  std::uint64_t levelStates = 0;
  const int reps = repCount(args);
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) setUpBurst();
    // The kNone check is four times shorter; it runs twice per rep.
    for (Check* check : {&c.fair, &c.none, &c.none}) {
      const auto t0 = Clock::now();
      const ssno::mc::Result r = runCheck(*check);
      const double seconds = secondsBetween(t0, Clock::now());
      levelStates += r.statesExplored - check->seedStates;
      (check == &c.fair ? out.a : out.b)
          .add(check->label, seconds, static_cast<double>(r.statesExplored));
      const bool last = rep == reps - 1 && check == &c.none;
      verifyResult(checks, *check, r, last && args.corrupt == "count",
                   last && args.corrupt == "verdict");
    }
  }
  checks.extra(counterValue("mc_states_total") - statesBefore == levelStates,
               "mc_states_total delta != statesExplored - seed states");
  std::ostringstream info;
  info << "{\"verify\":{\"reps\":" << reps
       << ",\"fair_states\":" << c.fair.expectStates
       << ",\"fair_transitions\":" << c.fair.expectTransitions
       << ",\"none_states\":" << c.none.expectStates
       << ",\"none_transitions\":" << c.none.expectTransitions
       << ",\"mc_states_per_s\":"
       << fmtDouble(static_cast<double>(c.fair.expectStates + c.none.expectStates) /
                    (out.a.passSeconds() + out.b.passSeconds()))
       << "}}";
  out.info = info.str();
  return out;
}

void verifyTrace(const Args& args, Checks& checks, SpanLedger& spans,
                 Metrics& out) {
  CheckPair c = setUp(args);
  spans.declare("verify", "");
  const auto put = [&out](const std::string& name, double v,
                          const std::string& unit) {
    out["verify." + name] = {v, unit};
  };
  double untracedTotal = 0, tracedTotal = 0;
  for (Check* check : {&c.fair, &c.none}) {
    const std::string name = check == &c.fair ? "fair" : "none";
    const std::string root = "verify." + name;
    spans.declare(root, "verify");
    spans.declare(root + ".mc.levels", root);
    spans.declare(root + ".mc.convergence", root);

    // Untraced and traced checks alternate; each side keeps its best.
    double untraced = 1e300;
    std::uint64_t evals = 0, levels = 0, levelNs = 0, convNs = 0;
    std::uint64_t ns = ~std::uint64_t{0};
    ssno::mc::Result r;
    for (int rep = 0; rep < kTraceRepeats; ++rep) {
      const auto u0 = Clock::now();
      verifyResult(checks, *check, runCheck(*check), false, false);
      untraced = std::min(untraced, secondsBetween(u0, Clock::now()));

      const std::uint64_t evals0 = counterValue("sim_guard_evals_total");
      const std::uint64_t levels0 = counterValue("mc_levels_total");
      const std::uint64_t level0 = histogramSum("mc_level_ns");
      const std::uint64_t conv0 = histogramSum("mc_convergence_ns");
      const auto t0 = Clock::now();
      const ssno::mc::Result traced = runCheck(*check);
      const std::uint64_t tracedNs = nsBetween(t0, Clock::now());
      verifyResult(checks, *check, traced, false, false);
      if (tracedNs < ns) {
        ns = tracedNs;
        r = traced;
        evals = counterValue("sim_guard_evals_total") - evals0;
        levels = counterValue("mc_levels_total") - levels0;
        levelNs = histogramSum("mc_level_ns") - level0;
        convNs = histogramSum("mc_convergence_ns") - conv0;
      }
    }
    spans.add(root, ns);
    spans.add(root + ".mc.levels", levelNs, levels);
    spans.add(root + ".mc.convergence", convNs);
    untracedTotal += untraced;
    tracedTotal += 1e-9 * static_cast<double>(ns);

    const std::string p = name + ".mc.";
    put(p + "states", static_cast<double>(r.statesExplored), "count");
    put(p + "transitions", static_cast<double>(r.transitions), "count");
    put(p + "levels", static_cast<double>(levels), "count");
    put(p + "level_ns", static_cast<double>(levelNs), "ns");
    put(p + "convergence_ns", static_cast<double>(convNs), "ns");
    put(p + "postpass_pct",
        100.0 * static_cast<double>(convNs) / std::max<double>(1, ns), "%");
    put(p + "store_load_pct",
        static_cast<double>(gaugeValue("mc_store_load_pct")), "%");
    put(p + "residual_pct",
        residualPct(static_cast<double>(ns), static_cast<double>(levelNs + convNs)),
        "%");
    put(name + ".core.guards.evals", static_cast<double>(evals), "count");
  }
  spans.add("verify", spans.totalNs("verify.fair") + spans.totalNs("verify.none"));
  put("trace_overhead_pct", pctOver(tracedTotal, untracedTotal), "%");
}

}  // namespace pb
