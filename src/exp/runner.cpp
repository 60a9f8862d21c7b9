#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "apps/broadcast.hpp"
#include "apps/routing.hpp"
#include "core/checker.hpp"
#include "core/fault.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "dftc/dftc.hpp"
#include "exp/fmt.hpp"
#include "mc/explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orientation/baseline.hpp"
#include "orientation/chordal.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "resil/campaign.hpp"
#include "resil/fault_plan.hpp"
#include "resil/search_daemon.hpp"
#include "sptree/bfs_tree.hpp"
#include "sptree/dfs_tree.hpp"
#include "sptree/lex_dfs_tree.hpp"

namespace ssno::exp {
namespace {

TrialResult dftnoTrial(const Graph& g, const Scenario& s, std::uint64_t seed) {
  Dftno dftno(g);
  Rng rng(seed);
  dftno.randomize(rng);
  auto daemon = makeDaemon(s.daemon);
  Simulator sim(dftno, *daemon, rng);
  const RunStats s1 = sim.runUntil(
      [&dftno] { return dftno.substrateLegitimate(); }, s.budget);
  const RunStats s2 =
      sim.runUntil([&dftno] { return dftno.isLegitimate(); }, s.budget);
  TrialResult r;
  r.converged = s1.converged && s2.converged;
  if (r.converged) {
    r.metrics = {{"substrate_moves", static_cast<double>(s1.moves)},
                 {"overlay_moves", static_cast<double>(s2.moves)},
                 {"overlay_rounds", static_cast<double>(s2.rounds)}};
  }
  return r;
}

TrialResult stnoTrial(const Graph& g, const Scenario& s, std::uint64_t seed) {
  Stno stno(g);
  Rng rng(seed);
  stno.randomize(rng);
  auto daemon = makeDaemon(s.daemon);
  Simulator sim(stno, *daemon, rng);
  const RunStats s1 = sim.runUntil(
      [&stno] { return stno.substrateLegitimate(); }, s.budget);
  const RunStats s2 = sim.runToQuiescence(s.budget);
  TrialResult r;
  r.converged = s1.converged && s2.terminal;
  if (r.converged) {
    r.metrics = {{"tree_moves", static_cast<double>(s1.moves)},
                 {"overlay_moves", static_cast<double>(s2.moves)},
                 {"overlay_rounds", static_cast<double>(s2.rounds)}};
  }
  return r;
}

TrialResult stnoFixedTreeTrial(const Graph& g, const Scenario& s,
                               std::uint64_t seed) {
  Stno stno(g, portOrderDfsTree(g));
  Rng rng(seed);
  stno.randomize(rng);
  auto daemon = makeDaemon(s.daemon);
  Simulator sim(stno, *daemon, rng);
  const RunStats stats = sim.runToQuiescence(s.budget);
  TrialResult r;
  r.converged = stats.terminal;
  if (r.converged) {
    r.metrics = {{"overlay_moves", static_cast<double>(stats.moves)},
                 {"overlay_rounds", static_cast<double>(stats.rounds)}};
  }
  return r;
}

/// Shared churn loop: step the protocol for `budget` moves, corrupting one
/// random node with probability faultRate before each step, and track the
/// fraction of steps spent in a correct configuration.
template <typename Protocol, typename CorrectFn>
TrialResult churnTrial(Protocol& protocol, const Scenario& s,
                       std::uint64_t seed, const CorrectFn& correct) {
  Rng rng(seed);
  auto daemon = makeDaemon(s.daemon);
  Simulator sim(protocol, *daemon, rng);
  FaultInjector inj(protocol);
  StepCount okSteps = 0;
  double faults = 0;
  for (StepCount t = 0; t < s.budget; ++t) {
    if (rng.chance(s.faultRate)) {
      inj.corruptK(1, rng);
      faults += 1;
    }
    (void)sim.stepOnce();
    if (correct()) ++okSteps;
  }
  TrialResult r;
  r.metrics = {{"availability", static_cast<double>(okSteps) /
                                    static_cast<double>(s.budget)},
               {"faults", faults}};
  return r;
}

TrialResult dftnoChurnTrial(const Graph& g, const Scenario& s,
                            std::uint64_t seed) {
  Dftno dftno(g);
  Rng init(seed);
  dftno.randomize(init);
  return churnTrial(dftno, s, init.next(),
                    [&dftno] { return dftno.isLegitimate(); });
}

TrialResult baselineChurnTrial(const Graph& g, const Scenario& s,
                               std::uint64_t seed) {
  InitBasedOrientation base(g);
  base.initializeAll();
  return churnTrial(base, s, seed, [&base] { return base.isCorrect(); });
}

/// Shared "scramble, then stabilize" loop for the bare substrates.
template <typename Protocol, typename DoneFn>
TrialResult substrateTrial(Protocol& protocol, const Scenario& s,
                           std::uint64_t seed, const char* movesName,
                           const char* roundsName, const DoneFn& done) {
  Rng rng(seed);
  protocol.randomize(rng);
  auto daemon = makeDaemon(s.daemon);
  Simulator sim(protocol, *daemon, rng);
  const RunStats stats = sim.runUntil(done, s.budget);
  TrialResult r;
  r.converged = stats.converged || stats.terminal;
  if (r.converged) {
    r.metrics = {{movesName, static_cast<double>(stats.moves)},
                 {roundsName, static_cast<double>(stats.rounds)}};
  }
  return r;
}

TrialResult dftcTrial(const Graph& g, const Scenario& s, std::uint64_t seed) {
  Dftc dftc(g);
  return substrateTrial(dftc, s, seed, "substrate_moves", "substrate_rounds",
                        [&dftc] { return dftc.isLegitimate(); });
}

TrialResult bfsTreeTrial(const Graph& g, const Scenario& s,
                         std::uint64_t seed) {
  BfsTree tree(g);
  return substrateTrial(tree, s, seed, "tree_moves", "tree_rounds",
                        [&tree] { return tree.isLegitimate(); });
}

TrialResult lexDfsTreeTrial(const Graph& g, const Scenario& s,
                            std::uint64_t seed) {
  LexDfsTree tree(g);
  return substrateTrial(tree, s, seed, "tree_moves", "tree_rounds",
                        [&tree] { return tree.isLegitimate(); });
}

/// Fault containment: converge, corrupt faultK processors, re-converge.
template <typename Protocol, typename LegitFn>
TrialResult recoveryTrial(Protocol& protocol, const Scenario& s,
                          std::uint64_t seed, const LegitFn& legit) {
  Rng rng(seed);
  protocol.randomize(rng);
  auto daemon = makeDaemon(s.daemon);
  Simulator sim(protocol, *daemon, rng);
  TrialResult r;
  if (!sim.runUntil(legit, s.budget).converged) {
    r.converged = false;
    return r;
  }
  FaultInjector inj(protocol);
  const int k = std::min(s.faultK, protocol.graph().nodeCount());
  inj.corruptK(k, rng);
  const RunStats stats = sim.runUntil(legit, s.budget);
  r.converged = stats.converged;
  if (r.converged) {
    r.metrics = {{"recovery_moves", static_cast<double>(stats.moves)},
                 {"recovery_rounds", static_cast<double>(stats.rounds)}};
  }
  return r;
}

TrialResult dftnoRecoveryTrial(const Graph& g, const Scenario& s,
                               std::uint64_t seed) {
  Dftno dftno(g);
  return recoveryTrial(dftno, s, seed,
                       [&dftno] { return dftno.isLegitimate(); });
}

TrialResult stnoRecoveryTrial(const Graph& g, const Scenario& s,
                              std::uint64_t seed) {
  Stno stno(g);
  return recoveryTrial(stno, s, seed, [&stno] { return stno.isLegitimate(); });
}

TrialResult stnoCrashResetTrial(const Graph& g, const Scenario& s,
                                std::uint64_t seed) {
  // Crash-and-reset of one processor (all-zero local state); the victim
  // is drawn from the trial seed so a trial sweep covers many victims.
  Stno stno(g);
  Rng rng(seed);
  stno.randomize(rng);
  auto daemon = makeDaemon(s.daemon);
  Simulator sim(stno, *daemon, rng);
  TrialResult r;
  if (!sim.runToQuiescence(s.budget).terminal) {
    r.converged = false;
    return r;
  }
  const NodeId victim = rng.below(g.nodeCount());
  FaultInjector(stno).crashReset(victim);
  const RunStats stats = sim.runToQuiescence(s.budget);
  r.converged = stats.terminal;
  if (r.converged) {
    r.metrics = {{"recovery_moves", static_cast<double>(stats.moves)},
                 {"victim", static_cast<double>(victim)}};
  }
  return r;
}

/// Chapter-5 ablation: do STNO-over-a-DFS-tree names equal DFTNO names?
/// One trial stabilizes four stacks (token, fixed DFS tree, BFS tree,
/// self-stabilizing LexDfsTree feeding STNO) from trial-derived seeds.
TrialResult ablationNamingTrial(const Graph& g, const Scenario& s,
                                std::uint64_t seed) {
  TrialResult r;
  auto fail = [&r] {
    r.converged = false;
    return r;
  };

  Dftno dftno(g);
  {
    Rng rng(seed + 1);
    dftno.randomize(rng);
    auto daemon = makeDaemon(s.daemon);
    Simulator sim(dftno, *daemon, rng);
    if (!sim.runUntil([&dftno] { return dftno.isLegitimate(); }, s.budget)
             .converged)
      return fail();
  }
  const Orientation viaToken = dftno.orientation();

  auto stabilizeStno = [&](Stno& stno, std::uint64_t stnoSeed) {
    Rng rng(stnoSeed);
    stno.randomize(rng);
    auto daemon = makeDaemon(s.daemon);
    Simulator sim(stno, *daemon, rng);
    return sim.runToQuiescence(s.budget).terminal;
  };

  Stno viaDfsStno(g, portOrderDfsTree(g));
  if (!stabilizeStno(viaDfsStno, seed + 2)) return fail();
  Stno viaBfsStno(g);
  if (!stabilizeStno(viaBfsStno, seed + 3)) return fail();

  // Fully self-stabilizing DFS route: LexDfsTree substrate, then STNO.
  LexDfsTree lex(g);
  double lexBits = 0;
  {
    Rng rng(seed + 4);
    lex.randomize(rng);
    auto daemon = makeDaemon(s.daemon);
    Simulator sim(lex, *daemon, rng);
    if (!sim.runToQuiescence(s.budget).terminal) return fail();
  }
  std::vector<NodeId> parents(static_cast<std::size_t>(g.nodeCount()));
  for (NodeId p = 0; p < g.nodeCount(); ++p)
    parents[static_cast<std::size_t>(p)] = lex.parentOf(p);
  Stno viaLexStno(g, std::move(parents));
  if (!stabilizeStno(viaLexStno, seed + 5)) return fail();

  double tokenBits = 0;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    lexBits = std::max(lexBits, lex.stateBits(p));
    tokenBits = std::max(tokenBits, dftno.substrate().stateBits(p));
  }
  r.metrics = {
      {"dfs_names_equal",
       viaDfsStno.orientation().name == viaToken.name ? 1.0 : 0.0},
      {"bfs_names_equal",
       viaBfsStno.orientation().name == viaToken.name ? 1.0 : 0.0},
      {"lex_names_equal",
       viaLexStno.orientation().name == viaToken.name ? 1.0 : 0.0},
      {"lex_tree_bits", lexBits},
      {"token_substrate_bits", tokenBits}};
  return r;
}

/// Deterministic per-node space accounting (EXP-3 tables).
TrialResult spaceTrial(const Graph& g, const Scenario&, std::uint64_t) {
  Dftno dftno(g);
  Stno stno(g);
  double dOrie = 0, dSub = 0, sOrie = 0, sSub = 0;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    dOrie = std::max(dOrie, dftno.orientationBits(p));
    dSub = std::max(dSub, dftno.substrate().stateBits(p));
    sOrie = std::max(sOrie, stno.orientationBits(p));
    sSub = std::max(sSub, stno.substrateBits(p));
  }
  TrialResult r;
  r.metrics = {{"max_degree", static_cast<double>(g.maxDegree())},
               {"dftno_orientation_bits", dOrie},
               {"dftno_substrate_bits", dSub},
               {"stno_orientation_bits", sOrie},
               {"stno_substrate_bits", sSub}};
  return r;
}

/// Deterministic §2.2 property checks on the canonical orientation.
TrialResult chordalPropsTrial(const Graph& g, const Scenario&,
                              std::uint64_t) {
  const Orientation o =
      inducedChordalOrientation(g, portOrderDfsPreorder(g), g.nodeCount());
  TrialResult r;
  r.metrics = {{"sp1", satisfiesSP1(o) ? 1.0 : 0.0},
               {"sp2", satisfiesSP2(o) ? 1.0 : 0.0},
               {"locally_oriented", isLocallyOriented(o) ? 1.0 : 0.0},
               {"edge_symmetry", hasEdgeSymmetry(o) ? 1.0 : 0.0}};
  return r;
}

/// Deterministic message-complexity comparison (EXP-12 tables).
TrialResult routingTrial(const Graph& g, const Scenario&, std::uint64_t) {
  const Orientation o =
      inducedChordalOrientation(g, portOrderDfsPreorder(g), g.nodeCount());
  const RoutingStats rs = evaluateRouting(o, 2);
  TrialResult r;
  r.metrics = {
      {"traversal_with_sod",
       static_cast<double>(traverseWithOrientation(o, g.root()).messages)},
      {"traversal_without_sod",
       static_cast<double>(traverseWithoutOrientation(g, g.root()).messages)},
      {"flood_messages", static_cast<double>(floodMessages(g, g.root()))},
      {"unicast_delivered_pct",
       rs.pairs == 0 ? 0.0 : 100.0 * rs.delivered / rs.pairs},
      {"unicast_mean_hops", rs.meanHops},
      {"unicast_max_stretch", rs.maxStretch}};
  return r;
}

/// Simulator throughput on DFTNO through the production pipeline
/// (incremental cache, EnabledView daemon selection, columnar
/// simultaneous steps): s.budget moves from a scrambled start.  Each run
/// reports its exact counts — moves, steps, rounds and guard
/// evaluations, fixed per seed on every machine and at any thread
/// count — and its rate, timed from the first refresh on.  Synchronous
/// rows add dense stepping on LexDfsTree (lex_ fields), the fat-state
/// protocol: a bounded perturbation gives `perturb` distinct non-root
/// processors short random path words, so every synchronous step
/// executes on the order of `perturb` simultaneous moves (the perturbed
/// processors and their activated neighbors) — a dense simultaneous
/// step even at n = 1e5, with memory bounded at any n.
TrialResult schedulerTrial(const Graph& g, const Scenario& s,
                           std::uint64_t seed) {
  TrialResult r;
  const auto record = [&r](const std::string& prefix, Simulator& sim,
                           StepCount budget) {
    const auto start = std::chrono::steady_clock::now();
    const RunStats stats = sim.runToQuiescence(budget);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    r.metrics.emplace_back(prefix + "moves", static_cast<double>(stats.moves));
    r.metrics.emplace_back(prefix + "steps", static_cast<double>(stats.steps));
    r.metrics.emplace_back(prefix + "rounds",
                           static_cast<double>(stats.rounds));
    r.metrics.emplace_back(prefix + "guard_evals",
                           static_cast<double>(sim.guardEvals()));
    r.metrics.emplace_back(prefix + "moves_per_sec",
                           static_cast<double>(stats.moves) /
                               std::max(secs, 1e-9));
  };
  {
    Dftno dftno(g);
    Rng rng(seed);
    dftno.randomize(rng);
    auto daemon = makeDaemon(s.daemon);
    Simulator sim(dftno, *daemon, rng);
    record("", sim, s.budget);
  }
  if (s.daemon == DaemonKind::kSynchronous) {
    constexpr int kPerturbCap = 256;
    constexpr int kWordCap = 8;
    LexDfsTree lex(g);
    Rng rng(seed ^ 0x1e0dull);
    const int n = g.nodeCount();
    const int perturb = std::min(n - 1, kPerturbCap);
    // Partial Fisher-Yates over the non-root ids.
    std::vector<NodeId> ids;
    ids.reserve(static_cast<std::size_t>(n - 1));
    for (NodeId p = 0; p < n; ++p)
      if (p != g.root()) ids.push_back(p);
    std::vector<int> raw;  // [par, has, len, entries...]
    for (int i = 0; i < perturb; ++i) {
      std::swap(ids[static_cast<std::size_t>(i)],
                ids[static_cast<std::size_t>(
                    rng.between(i, static_cast<int>(ids.size()) - 1))]);
      const NodeId p = ids[static_cast<std::size_t>(i)];
      raw.clear();
      raw.push_back(rng.below(g.degree(p)));
      raw.push_back(1);
      const int len = 1 + rng.below(kWordCap);
      raw.push_back(len);
      for (int k2 = 0; k2 < len; ++k2)
        raw.push_back(rng.below(std::max(1, g.maxDegree())));
      lex.setRawNode(p, raw);
    }
    auto daemon = makeDaemon(s.daemon);
    Simulator sim(lex, *daemon, rng);
    record("lex_", sim, 3 * static_cast<StepCount>(perturb));
  }
  return r;
}

}  // namespace

void validateLimits(const Scenario& s) {
  if (s.mcThreads < 0)
    throw std::invalid_argument(
        "mc-threads must be >= 0 (0 = the usable cores), got " +
        std::to_string(s.mcThreads));
  if (!(s.faultRate >= 0 && s.faultRate <= 1))  // NaN fails both
    throw std::invalid_argument("fault rate must be in [0, 1], got " +
                                shortestDouble(s.faultRate));
  if (s.budget > 0) return;
  if (s.protocol == ProtocolKind::kModelCheck)
    throw std::invalid_argument(
        "model-check budget must be positive (it caps the explored "
        "states), got " +
        std::to_string(s.budget));
  throw std::invalid_argument("budget must be positive, got " +
                              std::to_string(s.budget));
}

namespace {

/// Whether two checks of the same scenario returned the same result:
/// verdict, failure text, counterexample trace and exploration counts
/// (everything but the wall-clock fields and the spill-run count).
bool sameResult(const mc::Result& a, const mc::Result& b) {
  return a.ok == b.ok && a.failure == b.failure && a.trace == b.trace &&
         a.statesExplored == b.statesExplored &&
         a.transitions == b.transitions && a.peakFrontier == b.peakFrontier;
}

/// Exhaustive model-checking throughput and thread scaling: the target
/// protocol on g, verified by the src/mc explorer at 1 thread (the
/// sequential checker) and at s.mcThreads workers.  The two results must
/// be identical (verdicts_agree); speedup is the s.mcThreads states/sec
/// over the 1-thread states/sec.  When s.mcThreads resolves to 1 the one
/// check serves as both (speedup 1, verdicts_agree 1).
TrialResult modelCheckTrial(const Graph& g, const Scenario& s,
                            std::uint64_t) {
  validateLimits(s);  // overrides reach here without a parse
  auto factory = [&g, &s]() -> std::unique_ptr<Protocol> {
    switch (s.mcTarget) {
      case McTarget::kDftc:
      case McTarget::kDftcFault: return std::make_unique<Dftc>(g);
      case McTarget::kDftno: return std::make_unique<Dftno>(g);
    }
    throw std::invalid_argument("modelCheckTrial: unknown target");
  };
  auto legit = [&s](Protocol& p) {
    switch (s.mcTarget) {
      case McTarget::kDftc:
      case McTarget::kDftcFault:
        return static_cast<Dftc&>(p).isLegitimate();
      case McTarget::kDftno: return static_cast<Dftno&>(p).isLegitimate();
    }
    throw std::invalid_argument("modelCheckTrial: unknown target");
  };
  const bool reachableMode = s.mcTarget == McTarget::kDftcFault;

  // 1-fault seeds: every single-node corruption of the clean
  // configuration (all codes at one node, all nodes).
  std::vector<std::vector<std::uint64_t>> seeds;
  if (reachableMode) {
    Dftc clean(g);
    clean.resetClean();
    const std::vector<std::uint64_t> base = clean.encodeConfiguration();
    for (NodeId p = 0; p < g.nodeCount(); ++p) {
      for (std::uint64_t code = 0; code < clean.localStateCount(p); ++code) {
        std::vector<std::uint64_t> seed = base;
        seed[static_cast<std::size_t>(p)] = code;
        seeds.push_back(std::move(seed));
      }
    }
  }

  mc::ParallelChecker checker(factory, legit);
  const auto check = [&](int threads) {
    mc::Options opt;
    opt.threads = threads;
    opt.maxStates = static_cast<std::uint64_t>(s.budget);
    opt.fairness = Fairness::kWeaklyFair;
    return reachableMode ? checker.checkReachable(seeds, opt)
                         : checker.checkFullSpace(opt);
  };
  const int mcThreads = s.mcThreads > 0 ? s.mcThreads : usableCores();
  const mc::Result seqRes = check(1);
  const mc::Result mcRes = mcThreads == 1 ? seqRes : check(mcThreads);

  TrialResult r;
  r.converged = seqRes.ok && mcRes.ok;
  r.metrics = {{"states", static_cast<double>(mcRes.statesExplored)},
               {"seq_states_per_sec", seqRes.statesPerSec},
               {"mc_states_per_sec", mcRes.statesPerSec},
               {"speedup",
                mcRes.statesPerSec / std::max(seqRes.statesPerSec, 1e-9)},
               {"peak_frontier", static_cast<double>(mcRes.peakFrontier)},
               {"verdicts_agree", sameResult(seqRes, mcRes) ? 1.0 : 0.0}};
  return r;
}

/// Adversarial resilience certification on DFTNO (src/resil).  One trial:
///  * reference episode — the scenario's stock daemon samples a random
///    schedule under the fault plan (the "average case"),
///  * search episode — a SearchingDaemon (greedy or bounded-lookahead
///    per Scenario::adversary) hunts a worst-case schedule on the SAME
///    trial seed (the seed only drives scrambling and injections; the
///    search itself is deterministic),
///  * rerun — the search episode again from the same seed; every count
///    and the schedule itself must be bit-identical,
///  * replay — a ReplayDaemon re-drives the recorded schedule; again
///    everything must reproduce exactly (the certification claim).
/// The trial always "converges" as an experiment — whether the episodes
/// themselves converged is a metric, so budget-exhausted adversarial
/// runs are reported rather than dropped.
TrialResult resilienceTrial(const Graph& g, const Scenario& s,
                            std::uint64_t seed) {
  if (s.adversary != "greedy" && s.adversary != "lookahead")
    throw std::invalid_argument("resilience: unknown adversary '" +
                                s.adversary + "'");
  resil::EpisodeOptions eo;
  eo.budget = s.budget;
  eo.plan = resil::FaultPlan::parse(s.faultPlan);
  const int lookahead = s.adversary == "lookahead" ? s.lookahead : 0;

  const auto searchEpisode = [&] {
    Dftno dftno(g);
    resil::SearchingDaemon daemon(dftno, lookahead);
    Rng rng(seed);
    return resil::runEpisode(dftno, daemon, rng, eo,
                             [&dftno] { return dftno.isLegitimate(); });
  };

  resil::EpisodeResult reference;
  {
    Dftno dftno(g);
    auto daemon = makeDaemon(s.daemon);
    Rng rng(seed);
    reference = resil::runEpisode(dftno, *daemon, rng, eo,
                                  [&dftno] { return dftno.isLegitimate(); });
  }

  const resil::EpisodeResult search = searchEpisode();
  const resil::EpisodeResult rerun = searchEpisode();
  const bool rerunIdentical = rerun.schedule == search.schedule &&
                              rerun.moves == search.moves &&
                              rerun.rounds == search.rounds &&
                              rerun.converged == search.converged;

  bool replayIdentical = false;
  try {
    Dftno dftno(g);
    resil::ReplayDaemon daemon(search.schedule);
    Rng rng(seed);
    const resil::EpisodeResult replay = resil::runEpisode(
        dftno, daemon, rng, eo, [&dftno] { return dftno.isLegitimate(); });
    replayIdentical = replay.schedule == search.schedule &&
                      replay.moves == search.moves &&
                      replay.rounds == search.rounds &&
                      replay.converged == search.converged;
  } catch (const std::runtime_error&) {
    replayIdentical = false;  // replay diverged or over-ran its schedule
  }

  TrialResult r;
  r.metrics = {
      {"random_moves", static_cast<double>(reference.moves)},
      {"random_rounds", static_cast<double>(reference.rounds)},
      {"random_converged", reference.converged ? 1.0 : 0.0},
      {"search_moves", static_cast<double>(search.moves)},
      {"search_rounds", static_cast<double>(search.rounds)},
      {"search_converged", search.converged ? 1.0 : 0.0},
      {"search_gain", static_cast<double>(search.moves) /
                          std::max(1.0, static_cast<double>(reference.moves))},
      {"rerun_identity", rerunIdentical ? 1.0 : 0.0},
      {"replay_identity", replayIdentical ? 1.0 : 0.0},
      {"footprint", static_cast<double>(search.footprintMax)},
      {"injections", static_cast<double>(search.injections)},
      {"schedule_len", static_cast<double>(search.schedule.size())}};
  return r;
}

/// Telemetry overhead proof (the <2% CI gate).  schedulerTrial's DFTNO
/// hot loop runs with obs enabled and disabled.
/// Clock-frequency drift on a shared machine moves the absolute rate by
/// several percent between runs seconds apart — more than the effect
/// being measured — so the estimator is PAIRED: each rep times the two
/// modes back to back (alternating which goes first to cancel ordering
/// bias) and contributes one off/on ratio, and the trial reports the
/// median ratio, which adjacent-in-time pairing plus the median makes
/// robust to drift and scheduling outliers.  Tracing stays off in both
/// modes: the gate certifies the *always-on* cost (batched per-thread
/// counter flushes), not the opt-in trace cost.
TrialResult obsOverheadTrial(const Graph& g, const Scenario& s,
                             std::uint64_t seed) {
  // The measurement toggles the process-wide obs flag, so concurrent
  // overhead trials would flip it underneath each other's timed runs;
  // serialize them (CI additionally runs the obs preset at --threads 1
  // so no other trial kind shares the machine either).
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  constexpr int kReps = 15;
  auto movesPerSec = [&](bool telemetryOn) {
    obs::setEnabled(telemetryOn);
    Dftno dftno(g);
    Rng rng(seed);
    dftno.randomize(rng);
    auto daemon = makeDaemon(s.daemon);
    Simulator sim(dftno, *daemon, rng);
    const auto start = std::chrono::steady_clock::now();
    const RunStats stats = sim.runToQuiescence(s.budget);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return static_cast<double>(stats.moves) / std::max(secs, 1e-9);
  };
  const bool wasEnabled = obs::enabled();
  movesPerSec(wasEnabled);  // untimed warmup: page-faults, branch history
  std::vector<double> ratios;
  double bestOn = 0, bestOff = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool onFirst = (rep % 2) == 0;
    const double first = movesPerSec(onFirst);
    const double second = movesPerSec(!onFirst);
    const double on = onFirst ? first : second;
    const double off = onFirst ? second : first;
    bestOn = std::max(bestOn, on);
    bestOff = std::max(bestOff, off);
    ratios.push_back(off / std::max(on, 1e-9));
  }
  obs::setEnabled(wasEnabled);
  std::sort(ratios.begin(), ratios.end());
  const double medianRatio = ratios[ratios.size() / 2];
  TrialResult r;
  r.metrics = {{"telemetry_on_moves_per_sec", bestOn},
               {"telemetry_off_moves_per_sec", bestOff},
               {"obs_overhead_pct", (medianRatio - 1.0) * 100.0}};
  return r;
}

}  // namespace

std::string protocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kDftno: return "dftno";
    case ProtocolKind::kStno: return "stno";
    case ProtocolKind::kStnoFixedTree: return "stno-fixed-tree";
    case ProtocolKind::kDftnoChurn: return "dftno-churn";
    case ProtocolKind::kBaselineChurn: return "baseline-churn";
    case ProtocolKind::kDftc: return "dftc";
    case ProtocolKind::kBfsTree: return "bfs-tree";
    case ProtocolKind::kLexDfsTree: return "lex-dfs-tree";
    case ProtocolKind::kDftnoRecovery: return "dftno-recovery";
    case ProtocolKind::kStnoRecovery: return "stno-recovery";
    case ProtocolKind::kStnoCrashReset: return "stno-crash-reset";
    case ProtocolKind::kAblationNaming: return "ablation-naming";
    case ProtocolKind::kSpace: return "space";
    case ProtocolKind::kChordalProps: return "chordal-props";
    case ProtocolKind::kRouting: return "routing";
    case ProtocolKind::kScheduler: return "scheduler";
    case ProtocolKind::kModelCheck: return "model-check";
    case ProtocolKind::kResilience: return "resilience";
    case ProtocolKind::kObsOverhead: return "obs-overhead";
  }
  return "?";
}

std::string mcTargetName(McTarget target) {
  switch (target) {
    case McTarget::kDftc: return "dftc";
    case McTarget::kDftno: return "dftno";
    case McTarget::kDftcFault: return "dftc-fault";
  }
  return "?";
}

bool isChurnProtocol(ProtocolKind kind) {
  return kind == ProtocolKind::kDftnoChurn ||
         kind == ProtocolKind::kBaselineChurn;
}

bool usesFaultK(ProtocolKind kind) {
  return kind == ProtocolKind::kDftnoRecovery ||
         kind == ProtocolKind::kStnoRecovery;
}

std::string convergedLabel(int trials, int failedTrials) {
  return std::to_string(trials - failedTrials) + "/" + std::to_string(trials);
}

Summary ScenarioResult::metric(const std::string& name) const {
  const auto it = metrics.find(name);
  return it == metrics.end() ? Summary{} : it->second;
}

std::uint64_t trialSeed(std::uint64_t scenarioSeed, int trial) {
  std::uint64_t z = scenarioSeed +
                    0x9E3779B97F4A7C15ULL *
                        (static_cast<std::uint64_t>(trial) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TrialResult runTrial(const Graph& g, const Scenario& s, std::uint64_t seed) {
  switch (s.protocol) {
    case ProtocolKind::kDftno: return dftnoTrial(g, s, seed);
    case ProtocolKind::kStno: return stnoTrial(g, s, seed);
    case ProtocolKind::kStnoFixedTree: return stnoFixedTreeTrial(g, s, seed);
    case ProtocolKind::kDftnoChurn: return dftnoChurnTrial(g, s, seed);
    case ProtocolKind::kBaselineChurn: return baselineChurnTrial(g, s, seed);
    case ProtocolKind::kDftc: return dftcTrial(g, s, seed);
    case ProtocolKind::kBfsTree: return bfsTreeTrial(g, s, seed);
    case ProtocolKind::kLexDfsTree: return lexDfsTreeTrial(g, s, seed);
    case ProtocolKind::kDftnoRecovery: return dftnoRecoveryTrial(g, s, seed);
    case ProtocolKind::kStnoRecovery: return stnoRecoveryTrial(g, s, seed);
    case ProtocolKind::kStnoCrashReset: return stnoCrashResetTrial(g, s, seed);
    case ProtocolKind::kAblationNaming: return ablationNamingTrial(g, s, seed);
    case ProtocolKind::kSpace: return spaceTrial(g, s, seed);
    case ProtocolKind::kChordalProps: return chordalPropsTrial(g, s, seed);
    case ProtocolKind::kRouting: return routingTrial(g, s, seed);
    case ProtocolKind::kScheduler: return schedulerTrial(g, s, seed);
    case ProtocolKind::kModelCheck: return modelCheckTrial(g, s, seed);
    case ProtocolKind::kResilience: return resilienceTrial(g, s, seed);
    case ProtocolKind::kObsOverhead: return obsOverheadTrial(g, s, seed);
  }
  throw std::invalid_argument("runTrial: unknown protocol kind");
}

ExperimentRunner::ExperimentRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) threads_ = usableCores();
}

ScenarioResult ExperimentRunner::run(const Scenario& s) const {
  return runOnGraph(s, s.topology.build());
}

namespace {

/// runTrial plus the runner's observability wrapper: a wall-clock stamp
/// (feeding ScenarioResult::timing) and a trace span per trial.  With
/// the opt-in timing breakdown, also the trial's sim_guard_evals_total
/// delta (process-wide counters: meaningful only at --threads 1, and
/// only when obs is enabled).
TrialResult timedTrial(const Graph& g, const Scenario& s, int trial,
                       std::uint64_t seed, bool timingBreakdown) {
  obs::TraceSpan span("exp_trial");
  span.arg("trial", static_cast<std::uint64_t>(trial));
  const std::uint64_t evalsBefore =
      timingBreakdown
          ? obs::Registry::global().counterValue("sim_guard_evals_total")
          : 0;
  const auto start = std::chrono::steady_clock::now();
  TrialResult r = runTrial(g, s, seed);
  r.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (timingBreakdown)
    r.guardEvals = static_cast<double>(
        obs::Registry::global().counterValue("sim_guard_evals_total") -
        evalsBefore);
  return r;
}

/// Slot-order aggregation: walks trials in index order, so the result is
/// independent of which worker finished which trial first.
ScenarioResult aggregate(const Scenario& s, const Graph& g,
                         std::vector<TrialResult> slots) {
  ScenarioResult res;
  res.scenario = s;
  res.nodeCount = g.nodeCount();
  res.edgeCount = g.edgeCount();
  res.trials = s.trials;
  // Hardware provenance: reports carry the usable core count so a
  // consumer can tell core-count-dependent metrics (model-check
  // speedups) recorded on a single-core runner from real ones.
  res.cores = usableCores();
  std::map<std::string, std::vector<double>> samples;
  for (const TrialResult& trial : slots) {
    if (!trial.converged) {
      ++res.failedTrials;
      continue;
    }
    for (const auto& [name, value] : trial.metrics)
      samples[name].push_back(value);
  }
  for (auto& [name, values] : samples)
    res.metrics[name] = summarize(std::move(values));
  // Timing breakdown over ALL trials (failed ones included — a trial
  // that exhausted its budget still cost wall-clock time).
  std::vector<double> wall;
  wall.reserve(slots.size());
  for (const TrialResult& trial : slots) wall.push_back(trial.wallSeconds);
  res.timing["trial_seconds"] = summarize(std::move(wall));
  // Opt-in guards-per-second breakdown: present only when the runner's
  // timing breakdown stamped sim_guard_evals_total deltas (guardEvals
  // >= 0), so default reports stay byte-identical.
  std::vector<double> guardRates;
  for (const TrialResult& trial : slots)
    if (trial.guardEvals >= 0 && trial.wallSeconds > 0)
      guardRates.push_back(trial.guardEvals / trial.wallSeconds);
  if (!guardRates.empty())
    res.timing["guard_evals_per_sec"] = summarize(std::move(guardRates));
  return res;
}

}  // namespace

ScenarioResult ExperimentRunner::runOnGraph(const Scenario& s,
                                            const Graph& g) const {
  if (s.trials <= 0)
    throw std::invalid_argument("ExperimentRunner: trials must be positive");

  // Fan trials over the pool; slot `t` belongs to trial `t` alone, so
  // completion order cannot influence the aggregate.
  std::vector<TrialResult> slots(static_cast<std::size_t>(s.trials));
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int t = next.fetch_add(1); t < s.trials; t = next.fetch_add(1))
      slots[static_cast<std::size_t>(t)] =
          timedTrial(g, s, t, trialSeed(s.seed, t), timing_);
  };
  runWorkers(std::min(threads_, s.trials), [&](int) { worker(); });
  return aggregate(s, g, std::move(slots));
}

std::vector<ScenarioResult> ExperimentRunner::runAll(
    const std::vector<Scenario>& scenarios) const {
  // One flattened (scenario, trial) job list over one pool, so trials of
  // different scenarios overlap instead of each scenario's stragglers
  // idling the workers.  Per-trial seeds and the slot-order aggregation
  // are exactly those of the sequential path, so results (order AND
  // values) are unchanged.
  for (const Scenario& s : scenarios)
    if (s.trials <= 0)
      throw std::invalid_argument("ExperimentRunner: trials must be positive");

  std::vector<Graph> graphs;
  graphs.reserve(scenarios.size());
  for (const Scenario& s : scenarios) graphs.push_back(s.topology.build());

  struct Job {
    int scenario;
    int trial;
  };
  std::vector<Job> jobs;
  std::vector<std::vector<TrialResult>> slots(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    slots[i].resize(static_cast<std::size_t>(scenarios[i].trials));
    for (int t = 0; t < scenarios[i].trials; ++t)
      jobs.push_back({static_cast<int>(i), t});
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t j = next.fetch_add(1); j < jobs.size();
         j = next.fetch_add(1)) {
      const Job& job = jobs[j];
      const Scenario& s = scenarios[static_cast<std::size_t>(job.scenario)];
      slots[static_cast<std::size_t>(job.scenario)]
           [static_cast<std::size_t>(job.trial)] =
               timedTrial(graphs[static_cast<std::size_t>(job.scenario)], s,
                          job.trial, trialSeed(s.seed, job.trial), timing_);
    }
  };
  runWorkers(static_cast<int>(
                 std::min(static_cast<std::size_t>(threads_), jobs.size())),
             [&](int) { worker(); });

  std::vector<ScenarioResult> results;
  results.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    results.push_back(aggregate(scenarios[i], graphs[i], std::move(slots[i])));
  return results;
}

}  // namespace ssno::exp
