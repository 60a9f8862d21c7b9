// stepping: fixed-budget DFTNO stepping with no goal predicate, so the
// core step layers do all the work.  Phase A (sparse) is a round-robin
// burst on a ring of 1e5 nodes: one move per step, a fixed move budget.
// Phase B (dense) is a synchronous burst on a ring of 1e5 nodes or a
// 316x316 grid: a fixed number of steps from a fresh randomized
// configuration, drawn from a small seeded pool (the randomization is
// outside the timed window).  Revisited inputs must reproduce their
// moves, steps, rounds and final configuration exactly.
#include <memory>
#include <sstream>

#include "core/daemon.hpp"
#include "core/enabled_cache.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "exp/runner.hpp"
#include "exp/topology.hpp"
#include "orientation/dftno.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

struct Plan {
  std::string sparseTopology;
  ssno::StepCount sparseBudget = 0;  // moves per sparse burst
  int sparseBursts = 0;
  int sparseChunks = 0;  // timed runUntil calls per sparse burst
  std::vector<std::string> denseTopologies;
  int densePool = 0;   // randomized inputs per dense topology
  int denseSteps = 0;  // synchronous steps per dense burst
  int densePerChunk = 0;  // dense bursts run after each sparse chunk
};

Plan makePlan(const Args& args) {
  Plan p;
  if (args.tiny) {
    p.sparseTopology = "ring:500";
    p.sparseBudget = 20'000;
    p.sparseBursts = 2;
    p.sparseChunks = 4;
    p.denseTopologies = {"ring:500", "grid:20x20"};
    p.densePool = 2;
    p.denseSteps = 3;
    p.densePerChunk = 1;
    return p;
  }
  p.sparseTopology = "ring:100000";
  p.sparseBudget = 1'000'000;
  p.sparseBursts = std::max(3, args.seconds * 3 / 5);
  p.sparseChunks = 20;
  p.denseTopologies = {"ring:100000", "grid:316x316"};
  p.densePool = 2;
  p.denseSteps = 3;
  p.densePerChunk = 1;
  return p;
}

/// A protocol instance plus the seed its bursts randomize from.  Sparse
/// bursts stop at a move budget, dense bursts after a step count.
struct Input {
  std::unique_ptr<ssno::Dftno> dftno;
  ssno::DaemonKind daemon = ssno::DaemonKind::kRoundRobin;
  std::uint64_t seed = 0;
  ssno::StepCount budget = 0;
  int steps = 0;
  std::string label;
};

struct Inputs {
  Input sparse;
  std::vector<Input> dense;  // topology-major, densePool per topology

  /// Input `slot` in set-up order: the sparse one, then the dense ones.
  Input& slot(std::size_t i) { return i == 0 ? sparse : dense[i - 1]; }
  [[nodiscard]] std::size_t size() const { return 1 + dense.size(); }
};

/// Sets up input `slot`: builds the graph and protocol, randomizes it and
/// runs the first full enabled-set rebuild.
Input setUp(const Args& args, const Plan& plan, std::size_t slot) {
  const bool sparse = slot == 0;
  const std::string& topology =
      sparse ? plan.sparseTopology
             : plan.denseTopologies[(slot - 1) / static_cast<std::size_t>(
                                                     plan.densePool)];
  Input input;
  input.dftno = std::make_unique<ssno::Dftno>(
      ssno::exp::TopologySpec::parse(topology).build());
  input.daemon = sparse ? ssno::DaemonKind::kRoundRobin
                        : ssno::DaemonKind::kSynchronous;
  input.seed = ssno::exp::trialSeed(args.seed, static_cast<int>(slot));
  input.budget = sparse ? plan.sparseBudget : 0;
  input.steps = sparse ? 0 : plan.denseSteps;
  input.label = ssno::daemonKindName(input.daemon) + "/" + topology +
                " seed " + std::to_string(input.seed);
  ssno::Rng rng(input.seed);
  input.dftno->randomize(rng);
  ssno::EnabledCache cache(*input.dftno);
  (void)cache.refreshView();
  return input;
}

Inputs setUpAll(const Args& args, const Plan& plan) {
  Inputs in;
  in.dense.resize(plan.denseTopologies.size() *
                  static_cast<std::size_t>(plan.densePool));
  for (std::size_t i = 0; i < in.size(); ++i) in.slot(i) = setUp(args, plan, i);
  return in;
}

struct Burst {
  double seconds = 0;
  ssno::StepCount moves = 0;
  ssno::StepCount steps = 0;
  ssno::StepCount rounds = 0;
  std::uint64_t finalHash = 0;

  [[nodiscard]] bool sameCounts(const Burst& o) const {
    return moves == o.moves && steps == o.steps && rounds == o.rounds &&
           finalHash == o.finalHash;
  }
};

/// Production path: fresh randomize (untimed), then the Simulator —
/// runUntil with no goal for a move budget, or stepOnce per step.
Burst runSimulated(Input& in) {
  ssno::Rng rng(in.seed);
  in.dftno->randomize(rng);
  const auto daemon = ssno::makeDaemon(in.daemon);
  ssno::Simulator sim(*in.dftno, *daemon, rng);
  Burst b;
  const auto t0 = Clock::now();
  if (in.steps == 0) {
    const ssno::RunStats stats = sim.runUntil(nullptr, in.budget);
    b.moves = stats.moves;
    b.steps = stats.steps;
    b.rounds = stats.rounds;
  } else {
    for (; b.steps < in.steps; ++b.steps) {
      const std::size_t moved = sim.stepOnce().size();
      if (moved == 0) break;
      b.moves += static_cast<ssno::StepCount>(moved);
    }
    b.rounds = sim.roundsSoFar();
  }
  b.seconds = secondsBetween(t0, Clock::now());
  b.finalHash = hashInts(in.dftno->rawConfiguration());
  return b;
}

/// One burst through the layer loop, to the same move budget or step
/// count as runSimulated.
template <bool kTimed>
Burst runLayers(Input& in, LayerNs& ns) {
  ssno::Rng rng(in.seed);
  in.dftno->randomize(rng);
  LayerLoop<kTimed> loop(*in.dftno, in.daemon, rng);
  const LayerNs& done = loop.ns;
  loop.run(NoGoal{}, [&] {
    return in.steps == 0 ? done.moves() < static_cast<std::uint64_t>(in.budget)
                         : done.steps < static_cast<std::uint64_t>(in.steps);
  });
  ns += done;
  Burst b;
  b.moves = static_cast<ssno::StepCount>(done.moves());
  b.steps = static_cast<ssno::StepCount>(done.steps);
  b.finalHash = hashInts(in.dftno->rawConfiguration());
  return b;
}

}  // namespace

EndToEnd steppingRun(const Args& args, Checks& checks) {
  const Plan plan = makePlan(args);
  EndToEnd out;
  // Set-up: every input, again before every sparse burst.
  Inputs inputs;
  inputs.dense.resize(plan.denseTopologies.size() *
                      static_cast<std::size_t>(plan.densePool));
  const auto setUpInputs = [&] {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Input& in = inputs.slot(i);
      in = Input{};
      timeSetUp(out.setup, "input " + std::to_string(i),
                [&] { in = setUp(args, plan, i); });
    }
  };

  // Sparse bursts are timed in chunks (one runUntil call each, keyed by
  // chunk position, since the rate falls along the trajectory), and dense
  // bursts run between the chunks, so both phases sample the whole run.
  const std::uint64_t movesBefore = counterValue("sim_moves_total");
  std::uint64_t movesDriven = 0;
  const ssno::StepCount chunkMoves = plan.sparseBudget / plan.sparseChunks;
  std::vector<Burst> chunkFirst(static_cast<std::size_t>(plan.sparseChunks));
  std::uint64_t sparseHash = 0;
  std::vector<Burst> denseFirst(inputs.dense.size());
  std::size_t denseRuns = 0;
  Input& sparse = inputs.sparse;
  for (int burst = 0; burst < plan.sparseBursts; ++burst) {
    setUpInputs();
    ssno::Rng rng(sparse.seed);
    sparse.dftno->randomize(rng);
    const auto daemon = ssno::makeDaemon(sparse.daemon);
    ssno::Simulator sim(*sparse.dftno, *daemon, rng);
    for (int k = 0; k < plan.sparseChunks; ++k) {
      const auto t0 = Clock::now();
      const ssno::RunStats stats = sim.runUntil(nullptr, chunkMoves);
      Burst chunk;
      chunk.seconds = secondsBetween(t0, Clock::now());
      chunk.moves = stats.moves;
      chunk.steps = stats.steps;
      chunk.rounds = stats.rounds;
      movesDriven += static_cast<std::uint64_t>(chunk.moves);
      out.a.add("chunk " + std::to_string(k), chunk.seconds,
                static_cast<double>(chunk.moves));
      checks.op(chunk.moves == chunkMoves && chunk.steps == chunkMoves,
                sparse.label + ": sparse chunk moves/steps != budget");
      Burst& first = chunkFirst[static_cast<std::size_t>(k)];
      if (burst == 0)
        first = chunk;
      else
        checks.extra(chunk.sameCounts(first),
                     sparse.label + ": sparse chunks differ between bursts");

      for (int j = 0; j < plan.densePerChunk; ++j, ++denseRuns) {
        const std::size_t slot = denseRuns % inputs.dense.size();
        Input& in = inputs.dense[slot];
        const Burst b = runSimulated(in);
        movesDriven += static_cast<std::uint64_t>(b.moves);
        out.b.add(in.label, b.seconds, static_cast<double>(b.moves));
        checks.op(b.steps == in.steps && b.moves >= b.steps,
                  in.label + ": dense burst went quiet before its steps");
        if (denseRuns < inputs.dense.size())
          denseFirst[slot] = b;
        else
          checks.extra(b.sameCounts(denseFirst[slot]),
                       in.label + ": dense bursts differ between repeats");
      }
    }
    const std::uint64_t hash = hashInts(sparse.dftno->rawConfiguration());
    if (burst == 0)
      sparseHash = hash;
    else
      checks.extra(hash == sparseHash,
                   sparse.label + ": sparse final configurations differ");
  }
  checks.extra(counterValue("sim_moves_total") - movesBefore == movesDriven,
               "sim_moves_total delta != moves driven");

  // Independent reference: the same bursts driven through the public
  // layer calls must reach the same moves, steps and final configuration.
  LayerNs unused;
  Burst sparseRef = runLayers<false>(sparse, unused);
  if (args.corrupt == "count") sparseRef.moves += 1;
  checks.op(sparseRef.moves == sparse.budget &&
                sparseRef.steps == sparse.budget &&
                sparseRef.finalHash == sparseHash,
            sparse.label + ": layer-call replay differs from Simulator");
  for (std::size_t i = 0; i < inputs.dense.size(); ++i) {
    const Burst ref = runLayers<false>(inputs.dense[i], unused);
    checks.op(ref.moves == denseFirst[i].moves &&
                  ref.steps == denseFirst[i].steps &&
                  ref.finalHash == denseFirst[i].finalHash,
              inputs.dense[i].label + ": layer-call replay differs");
  }
  if (args.corrupt == "verdict")
    checks.op(sparseRef.finalHash != sparseHash,
              "corrupted verdict: expected differing final configurations");

  std::ostringstream info;
  info << "{\"stepping\":{\"sparse_bursts\":" << plan.sparseBursts
       << ",\"sparse_moves_per_burst\":" << plan.sparseBudget
       << ",\"sparse_chunks_per_burst\":" << plan.sparseChunks
       << ",\"sparse_moves_per_s\":" << fmtDouble(out.a.workPerSecond())
       << ",\"dense_bursts\":" << denseRuns
       << ",\"dense_steps_per_burst\":" << plan.denseSteps
       << ",\"dense_inputs\":" << inputs.dense.size()
       << ",\"dense_moves_per_s\":" << fmtDouble(out.b.workPerSecond())
       << "}}";
  out.info = info.str();
  return out;
}

void steppingTrace(const Args& args, Checks& checks, SpanLedger& spans,
                   Metrics& out) {
  const Plan plan = makePlan(args);
  Inputs inputs = setUpAll(args, plan);
  spans.declare("stepping", "");
  const auto put = [&out](const std::string& name, double v,
                          const std::string& unit) {
    out["stepping." + name] = {v, unit};
  };
  const auto perOp = [](double ns, std::uint64_t n) {
    return n ? ns / static_cast<double>(n) : 0.0;
  };
  double bareSeconds = 0, tracedSeconds = 0;
  // Per regime and input, repeated back to back: the Simulator burst (the
  // residual's base), the untimed layer loop (the overhead's base) and
  // the traced layer loop; the best of each is kept.
  const auto regime = [&](const std::string& name,
                          const std::vector<Input*>& list) {
    const std::string root = "stepping." + name;
    spans.declare(root, "stepping");
    for (const char* layer :
         {"core.guards", "core.daemon", "core.exec", "core.sync"})
      spans.declare(root + "." + layer, root);
    double simulated = 0;
    std::uint64_t bareTotal = 0, evals = 0;
    LayerNs ns;
    for (Input* in : list) {
      double simBest = 1e300;
      std::uint64_t bareBest = ~std::uint64_t{0};
      LayerNs best;
      best.total = ~std::uint64_t{0};
      std::uint64_t bestEvals = 0;
      for (int rep = 0; rep < kTraceRepeats; ++rep) {
        const Burst reference = runSimulated(*in);
        simBest = std::min(simBest, reference.seconds);
        LayerNs bare;
        (void)runLayers<false>(*in, bare);
        bareBest = std::min(bareBest, bare.total);
        const std::uint64_t evalsBefore = counterValue("sim_guard_evals_total");
        LayerNs traced;
        const Burst b = runLayers<true>(*in, traced);
        checks.op(b.moves == reference.moves &&
                      b.finalHash == reference.finalHash,
                  in->label + ": traced burst differs from Simulator");
        if (traced.total < best.total) {
          best = traced;
          bestEvals = counterValue("sim_guard_evals_total") - evalsBefore;
        }
      }
      simulated += simBest;
      bareTotal += bareBest;
      ns += best;
      evals += bestEvals;
    }
    const double guards = lessClockReads(ns.guards, ns.refreshes);
    const double daemon = lessClockReads(ns.daemon, ns.steps);
    const double exec = lessClockReads(ns.exec, ns.execMoves);
    const double sync = lessClockReads(ns.sync, ns.syncSteps);
    spans.add(root, ns.total, list.size());
    spans.add(root + ".core.guards", static_cast<std::uint64_t>(guards), ns.refreshes);
    spans.add(root + ".core.daemon", static_cast<std::uint64_t>(daemon), ns.steps);
    spans.add(root + ".core.exec", static_cast<std::uint64_t>(exec), ns.execMoves);
    spans.add(root + ".core.sync", static_cast<std::uint64_t>(sync), ns.syncSteps);
    bareSeconds += 1e-9 * static_cast<double>(bareTotal);
    tracedSeconds += 1e-9 * static_cast<double>(ns.total);
    const std::string p = name + ".";
    put(p + "core.guards.calls", static_cast<double>(ns.refreshes), "count");
    put(p + "core.guards.evals", static_cast<double>(evals), "count");
    put(p + "core.guards.ns_per_eval", perOp(guards, evals), "ns");
    put(p + "core.guards.self_ms", 1e-6 * guards, "ms");
    put(p + "core.daemon.calls", static_cast<double>(ns.steps), "count");
    put(p + "core.daemon.ns_per_step", perOp(daemon, ns.steps), "ns");
    put(p + "core.daemon.self_ms", 1e-6 * daemon, "ms");
    put(p + "core.sim.moves_per_step",
        perOp(static_cast<double>(ns.moves()), ns.steps), "count");
    put(p + "core.sim.residual_pct",
        residualPct(simulated * 1e9, guards + daemon + exec + sync), "%");
    return ns;
  };
  const LayerNs sparse = regime("sparse", {&inputs.sparse});
  const double sparseExec = lessClockReads(sparse.exec, sparse.execMoves);
  put("sparse.core.exec.moves", static_cast<double>(sparse.execMoves), "count");
  put("sparse.core.exec.ns_per_move", perOp(sparseExec, sparse.execMoves), "ns");
  put("sparse.core.exec.self_ms", 1e-6 * sparseExec, "ms");

  std::vector<Input*> dense;
  for (std::size_t i = 0; i < inputs.dense.size();
       i += static_cast<std::size_t>(plan.densePool))
    dense.push_back(&inputs.dense[i]);
  const LayerNs denseNs = regime("dense", dense);
  const double denseSync = lessClockReads(denseNs.sync, denseNs.syncSteps);
  put("dense.core.sync.steps", static_cast<double>(denseNs.syncSteps), "count");
  put("dense.core.sync.actor_moves", static_cast<double>(denseNs.syncMoves),
      "count");
  put("dense.core.sync.ns_per_actor_move", perOp(denseSync, denseNs.syncMoves),
      "ns");
  put("dense.core.sync.self_ms", 1e-6 * denseSync, "ms");
  spans.add("stepping", spans.totalNs("stepping.sparse") +
                            spans.totalNs("stepping.dense"));
  put("trace_overhead_pct", pctOver(tracedSeconds, bareSeconds), "%");
}

}  // namespace pb
