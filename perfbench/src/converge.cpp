// converge: DFTNO and STNO from randomized configurations to L_NO — the
// paper's headline measurement.  Phase A holds the DFTNO trials
// (round-robin ring, central grid, central random 4-regular), phase B the
// STNO trials (central grid).  An operation is one trial, its latency the
// time to legitimacy.  The trial set is fixed and the run seed shuffles
// its order, so every run does the same work; each trial's moves and
// rounds must equal those recorded for it.  A phase's pass latency
// (converge_s, split by protocol) is the sum of its trials' best times,
// and its rate is trials per second of that sum.
#include <algorithm>
#include <memory>
#include <random>
#include <sstream>

#include "core/daemon.hpp"
#include "core/enabled_cache.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "exp/runner.hpp"
#include "exp/topology.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using ssno::DaemonKind;

constexpr ssno::StepCount kBudget = 200'000'000;

/// Trial seeds are exp::trialSeed(kTrialSetSeed, index).
constexpr std::uint64_t kTrialSetSeed = 1;

/// Substrate moves, overlay moves and overlay rounds of one trial.
struct Counts {
  ssno::StepCount substrateMoves = 0;
  ssno::StepCount overlayMoves = 0;
  ssno::StepCount overlayRounds = 0;

  bool operator==(const Counts&) const = default;
};

/// The counts of the trial set, in trial-set order, recorded when the
/// benchmark was added.  A change that alters a trajectory fails the
/// check against them.
const std::vector<Counts> kRecorded = {
    // round-robin ring:160
    {7664, 95, 1}, {5747, 77, 1}, {8953, 93, 1},
    // central grid:12x12
    {2108, 3, 1}, {2087, 3, 1}, {2067, 10, 1},
    // central dreg:144:4:1
    {2464, 6, 1}, {2385, 56, 20}, {2603, 10, 1},
    // STNO central grid:20x20
    {31695, 5047, 14}, {31103, 7012, 15}, {24988, 6295, 19},
    {32361, 6450, 15}, {33754, 6586, 17},
};
const std::vector<Counts> kRecordedTiny = {
    {171, 13, 1}, {152, 0, 0}, {156, 8, 1}, {365, 313, 8},
};

struct TrialSpec {
  bool dftno = true;
  DaemonKind daemon = DaemonKind::kCentral;
  std::string topology;
  std::uint64_t seed = 0;
  std::size_t index = 0;  // position in the trial set
};

/// The fixed trial set, in an order shuffled by the run seed.
std::vector<TrialSpec> trialSet(const Args& args) {
  struct Shape {
    bool dftno;
    DaemonKind daemon;
    std::string topology;
    int trials;
  };
  std::vector<Shape> shapes;
  if (args.tiny) {
    shapes = {{true, DaemonKind::kRoundRobin, "ring:16", 1},
              {true, DaemonKind::kCentral, "grid:4x4", 1},
              {true, DaemonKind::kCentral, "dreg:16:4:1", 1},
              {false, DaemonKind::kCentral, "grid:6x6", 1}};
  } else {
    shapes = {{true, DaemonKind::kRoundRobin, "ring:160", 3},
              {true, DaemonKind::kCentral, "grid:12x12", 3},
              {true, DaemonKind::kCentral, "dreg:144:4:1", 3},
              {false, DaemonKind::kCentral, "grid:20x20", 5}};
  }
  std::vector<TrialSpec> out;
  for (const Shape& s : shapes)
    for (int t = 0; t < s.trials; ++t)
      out.push_back({s.dftno, s.daemon, s.topology,
                     ssno::exp::trialSeed(kTrialSetSeed,
                                          static_cast<int>(out.size())),
                     out.size()});
  std::mt19937_64 shuffle(args.seed);
  std::shuffle(out.begin(), out.end(), shuffle);
  return out;
}

/// One trial's protocol instance, kept across passes (the DFTNO orbit is
/// built once, in set-up).
struct Instance {
  TrialSpec spec;
  std::unique_ptr<ssno::Dftno> dftno;
  std::unique_ptr<ssno::Stno> stno;

  ssno::Protocol& protocol() {
    return dftno ? static_cast<ssno::Protocol&>(*dftno)
                 : static_cast<ssno::Protocol&>(*stno);
  }
  bool substrateLegitimate() {
    return dftno ? dftno->substrateLegitimate() : stno->substrateLegitimate();
  }
  bool legitimate() {
    return dftno ? dftno->isLegitimate() : stno->isLegitimate();
  }
};

/// Builds the graph and protocol, randomizes, runs the first full
/// enabled-set rebuild and the first predicate calls (the orbit builds).
/// Returns the seconds the predicate calls took.
double setUp(const TrialSpec& spec, Instance& in) {
  const ssno::Graph g = ssno::exp::TopologySpec::parse(spec.topology).build();
  in.spec = spec;
  if (spec.dftno)
    in.dftno = std::make_unique<ssno::Dftno>(g);
  else
    in.stno = std::make_unique<ssno::Stno>(g);
  ssno::Rng rng(spec.seed);
  in.protocol().randomize(rng);
  {
    ssno::EnabledCache cache(in.protocol());
    (void)cache.refreshView();
  }
  const auto t0 = Clock::now();
  (void)in.substrateLegitimate();
  (void)in.legitimate();
  return secondsBetween(t0, Clock::now());
}

struct TrialOutcome {
  double seconds = 0;
  bool converged = false;
  Counts counts;

  [[nodiscard]] ssno::StepCount moves() const {
    return counts.substrateMoves + counts.overlayMoves;
  }
};

/// The production path: randomize (untimed), then Simulator::runUntil to
/// the substrate and to L_NO (DFTNO) or to quiescence (STNO) — the same
/// procedure as exp::runTrial.
TrialOutcome runSimulated(Instance& in) {
  ssno::Rng rng(in.spec.seed);
  in.protocol().randomize(rng);
  const auto daemon = ssno::makeDaemon(in.spec.daemon);
  ssno::Simulator sim(in.protocol(), *daemon, rng);
  TrialOutcome out;
  const auto t0 = Clock::now();
  const ssno::RunStats s1 =
      sim.runUntil([&in] { return in.substrateLegitimate(); }, kBudget);
  const ssno::RunStats s2 =
      in.dftno ? sim.runUntil([&in] { return in.legitimate(); }, kBudget)
               : sim.runToQuiescence(kBudget);
  out.seconds = secondsBetween(t0, Clock::now());
  out.converged = s1.converged && (in.dftno ? s2.converged : s2.terminal);
  out.counts = {s1.moves, s2.moves, s2.rounds};
  return out;
}

/// Final-configuration checks: L_NO (and SP_NO for DFTNO).
bool finalStateLegitimate(Instance& in) {
  if (in.dftno) return in.dftno->isLegitimate() && in.dftno->satisfiesSpecNow();
  return in.stno->isLegitimate();
}

std::string trialLabel(const TrialSpec& s) {
  return std::string(s.dftno ? "dftno/" : "stno/") +
         ssno::daemonKindName(s.daemon) + "/" + s.topology + " seed " +
         std::to_string(s.seed);
}

/// Every pass after the first sets up again one in kSetUpStride trials.
constexpr int kSetUpStride = 6;

/// Many short passes rather than a few long ones: the host's fast spells
/// last about a second, and each trial keeps its best pass.
int passCount(const Args& args) {
  if (args.tiny) return 2;
  return std::max(2, args.seconds * 6 / 5);
}

}  // namespace

EndToEnd convergeRun(const Args& args, Checks& checks) {
  const std::vector<TrialSpec> specs = trialSet(args);
  EndToEnd out;
  std::vector<Instance> instances(specs.size());
  const auto setUpTimed = [&](std::size_t i) {
    instances[i] = Instance{};
    timeSetUp(out.setup, trialLabel(specs[i]),
              [&] { (void)setUp(specs[i], instances[i]); });
  };
  for (std::size_t i = 0; i < specs.size(); ++i) setUpTimed(i);

  // Every pass replays the trial set; every trial must reach L_NO with
  // the moves and rounds recorded for it.
  const std::vector<Counts>& recorded = args.tiny ? kRecordedTiny : kRecorded;
  const std::uint64_t movesBefore = counterValue("sim_moves_total");
  std::uint64_t movesDriven = 0;
  std::vector<Counts> observed(specs.size());
  const int passes = passCount(args);
  for (int pass = 0; pass < passes; ++pass) {
    if (pass > 0)
      for (std::size_t i = pass % kSetUpStride; i < instances.size();
           i += kSetUpStride)
        setUpTimed(i);
    for (Instance& in : instances) {
      const TrialOutcome r = runSimulated(in);
      movesDriven += static_cast<std::uint64_t>(r.moves());
      const std::string label = trialLabel(in.spec);
      (in.dftno ? out.a : out.b).add(label, r.seconds, 1);
      observed[in.spec.index] = r.counts;
      const bool known = in.spec.index < recorded.size();
      Counts expect = known ? recorded[in.spec.index] : Counts{};
      if (in.spec.index == 0 && args.corrupt == "count")
        ++expect.substrateMoves;
      if (checks.op(r.converged, label + ": did not converge"))
        checks.extra(finalStateLegitimate(in),
                     label + ": final configuration not legitimate");
      checks.extra(known && r.counts == expect,
                   label + ": moves/rounds differ from those recorded");
    }
  }
  checks.extra(counterValue("sim_moves_total") - movesBefore == movesDriven,
               "sim_moves_total delta != moves driven");
  if (args.corrupt == "verdict")
    checks.op(!finalStateLegitimate(instances.front()),
              "corrupted verdict: expected an illegitimate final state");

  std::ostringstream info;
  info << "{\"converge\":{\"trials\":" << specs.size()
       << ",\"passes\":" << passes << ",\"converge_s\":"
       << fmtDouble(out.a.passSeconds() + out.b.passSeconds())
       << ",\"dftno_converge_s\":" << fmtDouble(out.a.passSeconds())
       << ",\"stno_converge_s\":" << fmtDouble(out.b.passSeconds())
       << ",\"moves_per_pass\":" << movesDriven / static_cast<std::uint64_t>(passes)
       << ",\"counts\":[";
  for (std::size_t i = 0; i < observed.size(); ++i)
    info << (i ? ",[" : "[") << observed[i].substrateMoves << ","
         << observed[i].overlayMoves << "," << observed[i].overlayRounds << "]";
  info << "]}}";
  out.info = info.str();
  return out;
}

namespace {

/// One trial through the layer loop: to the substrate predicate, then to
/// L_NO (DFTNO) or quiescence (STNO).  Every daemon in the trial set
/// moves one node per step.  Returns the moves executed.
template <bool kTimed>
std::uint64_t runLayers(Instance& in, LayerNs& ns) {
  ssno::Rng rng(in.spec.seed);
  in.protocol().randomize(rng);
  LayerLoop<kTimed> loop(in.protocol(), in.spec.daemon, rng);
  loop.run([&in] { return in.substrateLegitimate(); });
  if (in.dftno)
    loop.run([&in] { return in.legitimate(); });
  else
    loop.run(NoGoal{});
  ns += loop.ns;
  return loop.ns.moves();
}

}  // namespace

void convergeTrace(const Args& args, Checks& checks, SpanLedger& spans,
                   Metrics& out) {
  const std::vector<TrialSpec> specs = trialSet(args);
  spans.declare("converge", "");
  spans.declare("converge.trial", "converge");
  for (const char* layer :
       {"orientation.legit", "core.guards", "core.daemon", "core.exec"})
    spans.declare(std::string("converge.") + layer, "converge.trial");

  // Fresh instances: set-up with the orbit builds timed, then per trial,
  // repeated back to back, the Simulator run (the residual's base), the
  // untimed layer loop (the overhead's base) and the traced layer loop;
  // the best of each is kept.
  double orbitSeconds = 0;
  std::vector<Instance> instances(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    orbitSeconds += setUp(specs[i], instances[i]);
  double simulated = 0;
  std::uint64_t bareTotal = 0, evals = 0;
  LayerNs ns;
  for (Instance& in : instances) {
    const std::string label = trialLabel(in.spec);
    double simBest = 1e300;
    std::uint64_t bareBest = ~std::uint64_t{0};
    LayerNs best;
    best.total = ~std::uint64_t{0};
    std::uint64_t bestEvals = 0;
    for (int rep = 0; rep < kTraceRepeats; ++rep) {
      const TrialOutcome r = runSimulated(in);
      simBest = std::min(simBest, r.seconds);
      LayerNs bare;
      (void)runLayers<false>(in, bare);
      bareBest = std::min(bareBest, bare.total);
      const std::uint64_t evalsBefore = counterValue("sim_guard_evals_total");
      LayerNs traced;
      const std::uint64_t moves = runLayers<true>(in, traced);
      checks.op(finalStateLegitimate(in),
                label + ": traced final configuration not legitimate");
      checks.extra(moves == static_cast<std::uint64_t>(r.moves()),
                   label + ": traced moves differ from Simulator moves");
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
  const double legit = lessClockReads(ns.legit, ns.legitCalls);
  const double guards = lessClockReads(ns.guards, ns.refreshes);
  const double daemon = lessClockReads(ns.daemon, ns.steps);
  const double exec = lessClockReads(ns.exec, ns.execMoves);
  spans.add("converge.trial", ns.total, instances.size());
  spans.add("converge.orientation.legit", static_cast<std::uint64_t>(legit),
            ns.legitCalls);
  spans.add("converge.core.guards", static_cast<std::uint64_t>(guards),
            ns.refreshes);
  spans.add("converge.core.daemon", static_cast<std::uint64_t>(daemon), ns.steps);
  spans.add("converge.core.exec", static_cast<std::uint64_t>(exec),
            ns.execMoves);
  spans.add("converge", ns.total);

  const auto put = [&out](const std::string& name, double v,
                          const std::string& unit) {
    out["converge." + name] = {v, unit};
  };
  const auto perOp = [](double total, std::uint64_t n) {
    return n ? total / static_cast<double>(n) : 0.0;
  };
  put("core.guards.calls", static_cast<double>(ns.refreshes), "count");
  put("core.guards.evals", static_cast<double>(evals), "count");
  put("core.guards.ns_per_eval", perOp(guards, evals), "ns");
  put("core.guards.self_ms", 1e-6 * guards, "ms");
  put("core.daemon.ns_per_step", perOp(daemon, ns.steps), "ns");
  put("core.daemon.self_ms", 1e-6 * daemon, "ms");
  put("core.exec.ns_per_move", perOp(exec, ns.execMoves), "ns");
  put("core.exec.self_ms", 1e-6 * exec, "ms");
  put("orientation.legit.calls", static_cast<double>(ns.legitCalls), "count");
  put("orientation.legit.ns_per_call", perOp(legit, ns.legitCalls), "ns");
  put("orientation.legit.self_ms", 1e-6 * legit, "ms");
  put("orientation.legit.share_pct",
      100.0 * legit / std::max(1.0, static_cast<double>(ns.total)), "%");
  put("orientation.legit.orbit_s", orbitSeconds, "s");
  put("core.sim.moves_per_step", perOp(static_cast<double>(ns.moves()), ns.steps),
      "count");
  put("core.sim.residual_pct",
      residualPct(simulated * 1e9, legit + guards + daemon + exec), "%");
  put("trace_overhead_pct",
      pctOver(static_cast<double>(ns.total), static_cast<double>(bareTotal)),
      "%");
}

}  // namespace pb
