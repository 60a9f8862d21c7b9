#include "exp/scenario.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ssno::exp {
namespace {

/// Builds a triple-named scenario with the given sweep-wide settings.
Scenario triple(ProtocolKind protocol, DaemonKind daemon,
                const std::string& topology, int trials, std::uint64_t seed) {
  Scenario s;
  s.protocol = protocol;
  s.daemon = daemon;
  s.topology = TopologySpec::parse(topology);
  s.trials = trials;
  s.seed = seed;
  s.name = protocolKindName(protocol) + "/" + daemonKindName(daemon) + "/" +
           s.topology.name();
  return s;
}

std::vector<Scenario> dftnoScalingPreset() {
  constexpr std::uint64_t kSeed = 0xA11CE;
  std::vector<Scenario> out;
  auto add = [&out](const std::string& topo) {
    out.push_back(
        triple(ProtocolKind::kDftno, DaemonKind::kRoundRobin, topo, 10, kSeed));
  };
  for (int n : {8, 16, 32, 64, 128}) add("ring:" + std::to_string(n));
  for (int n : {8, 16, 32, 64, 128}) add("path:" + std::to_string(n));
  for (int n : {7, 15, 31, 63, 127}) add("kary:" + std::to_string(n) + "x2");
  for (int spine : {3, 6, 12, 24})
    add("caterpillar:" + std::to_string(spine) + "x2");
  for (int n : {6, 9, 12, 16, 20}) add("complete:" + std::to_string(n));
  return out;
}

std::vector<Scenario> stnoHeightPreset() {
  constexpr std::uint64_t kSeed = 0xBEE;
  std::vector<Scenario> out;
  for (const char* topo :
       {"star:40", "kary:40x3", "kary:40x2", "caterpillar:13x2", "path:40"})
    out.push_back(triple(ProtocolKind::kStnoFixedTree,
                         DaemonKind::kSynchronous, topo, 10, kSeed));
  return out;
}

std::vector<Scenario> stnoStarControlPreset() {
  constexpr std::uint64_t kSeed = 0xBEE;
  std::vector<Scenario> out;
  for (int n : {10, 20, 40, 80, 160})
    out.push_back(triple(ProtocolKind::kStnoFixedTree,
                         DaemonKind::kSynchronous,
                         "star:" + std::to_string(n), 10, kSeed));
  return out;
}

std::vector<Scenario> stnoScalingPreset() {
  constexpr std::uint64_t kSeed = 0xFACE;
  std::vector<Scenario> out;
  for (int n : {10, 20, 40})
    out.push_back(triple(ProtocolKind::kStno, DaemonKind::kDistributed,
                         "path:" + std::to_string(n), 10, kSeed));
  return out;
}

std::vector<Scenario> churnPreset() {
  constexpr std::uint64_t kSeed = 0xC0DE;
  std::vector<Scenario> out;
  for (double rate : {0.0001, 0.0005, 0.002, 0.01}) {
    for (ProtocolKind protocol :
         {ProtocolKind::kDftnoChurn, ProtocolKind::kBaselineChurn}) {
      Scenario s = triple(protocol, DaemonKind::kRoundRobin, "grid:3x4", 3,
                          kSeed);
      s.faultRate = rate;
      s.budget = 40'000;  // step horizon, not a convergence budget
      std::ostringstream name;
      name << s.name << "/rate=" << rate;
      s.name = name.str();
      out.push_back(s);
    }
  }
  return out;
}

std::vector<Scenario> substratePreset() {
  // EXP-11: the two "assumed" substrates head to head, from scrambled
  // states (tests/dftc_test.cpp's DftcCleanRound suite pins the clean
  // round on these topologies).
  constexpr std::uint64_t kSeed = 0x5B5;
  std::vector<Scenario> out;
  for (const char* topo :
       {"ring:16", "path:16", "complete:8", "grid:4x4", "er:16:0.3:41"}) {
    out.push_back(
        triple(ProtocolKind::kDftc, DaemonKind::kRoundRobin, topo, 10, kSeed));
    out.push_back(triple(ProtocolKind::kBfsTree, DaemonKind::kRoundRobin,
                         topo, 10, kSeed));
  }
  return out;
}

std::vector<Scenario> endToEndPreset() {
  // EXP-7 (Theorems 3.2.3 / 4.2.3): both protocols from fully scrambled
  // configurations, substrate and orientation layer alike.
  constexpr std::uint64_t kSeed = 0xE2E;
  constexpr const char* kTopologies[] = {"ring:24",       "grid:4x6",
                                         "complete:10",   "lollipop:6x12",
                                         "er:24:0.15:21", "hypercube:4"};
  std::vector<Scenario> out;
  for (const char* topo : kTopologies)
    out.push_back(
        triple(ProtocolKind::kDftno, DaemonKind::kRoundRobin, topo, 10, kSeed));
  for (const char* topo : kTopologies)
    out.push_back(
        triple(ProtocolKind::kStno, DaemonKind::kDistributed, topo, 10, kSeed));
  return out;
}

std::vector<Scenario> faultRecoveryPreset() {
  // EXP-10: recovery cost vs number of corrupted processors on grid(4x4),
  // plus per-victim crash-and-reset.
  constexpr std::uint64_t kSeed = 0xFA17;
  std::vector<Scenario> out;
  for (int k : {1, 2, 4, 8, 16}) {
    for (ProtocolKind protocol :
         {ProtocolKind::kDftnoRecovery, ProtocolKind::kStnoRecovery}) {
      Scenario s =
          triple(protocol, DaemonKind::kRoundRobin, "grid:4x4", 12, kSeed);
      s.faultK = k;
      s.name += "/k=" + std::to_string(k);
      out.push_back(s);
    }
  }
  out.push_back(triple(ProtocolKind::kStnoCrashReset, DaemonKind::kRoundRobin,
                       "grid:4x4", 16, kSeed));
  return out;
}

std::vector<Scenario> ablationNamingPreset() {
  // EXP-8 (Chapter 5): DFS-tree STNO naming vs DFTNO naming.
  constexpr std::uint64_t kSeed = 0x5EED;
  std::vector<Scenario> out;
  for (const char* topo :
       {"ring:12", "grid:3x4", "complete:8", "er:14:0.3:31"})
    out.push_back(triple(ProtocolKind::kAblationNaming,
                         DaemonKind::kRoundRobin, topo, 3, kSeed));
  return out;
}

std::vector<Scenario> spacePreset() {
  // EXP-3: per-node bits vs N and Δ (deterministic accounting).
  std::vector<Scenario> out;
  auto add = [&out](const std::string& topo) {
    out.push_back(
        triple(ProtocolKind::kSpace, DaemonKind::kCentral, topo, 1, 0));
  };
  for (int n : {8, 16, 32, 64}) add("ring:" + std::to_string(n));
  for (int n : {8, 16, 32, 64}) add("star:" + std::to_string(n));
  for (int n : {8, 16, 32}) add("complete:" + std::to_string(n));
  for (int d : {3, 4, 5}) add("hypercube:" + std::to_string(d));
  return out;
}

std::vector<Scenario> chordalPropsPreset() {
  // EXP-4: §2.2 property sweep on the canonical orientation.
  std::vector<Scenario> out;
  for (const char* topo : {"ring:32", "torus:4x8", "hypercube:5", "er:40:0.2:5"})
    out.push_back(
        triple(ProtocolKind::kChordalProps, DaemonKind::kCentral, topo, 1, 0));
  return out;
}

std::vector<Scenario> routingPreset() {
  // EXP-12: message complexity with vs without an orientation.
  std::vector<Scenario> out;
  for (const char* topo : {"kary:31x2", "ring:32", "grid:6x6", "torus:6x6",
                           "hypercube:6", "er:32:0.3:51", "complete:32"})
    out.push_back(
        triple(ProtocolKind::kRouting, DaemonKind::kCentral, topo, 1, 0));
  return out;
}

/// A model-check scenario named "model-check:<target>/central/<topo>"
/// (central: the transition relation is one enabled move at a time).
Scenario modelCheckScenario(McTarget target, const std::string& topology,
                            int trials, std::uint64_t maxStates) {
  Scenario s;
  s.protocol = ProtocolKind::kModelCheck;
  s.mcTarget = target;
  s.daemon = DaemonKind::kCentral;
  s.topology = TopologySpec::parse(topology);
  s.trials = trials;
  s.budget = static_cast<StepCount>(maxStates);
  s.name = protocolKindName(ProtocolKind::kModelCheck) + ":" +
           mcTargetName(target) + "/" + daemonKindName(s.daemon) + "/" +
           s.topology.name();
  return s;
}

std::vector<Scenario> schedulerPreset() {
  // Fixed simulator-throughput preset: DFTNO stepping on ring/grid at
  // n >= 1024 through the production pipeline, under the round-robin
  // daemon (one move per step) and the synchronous daemon (the columnar
  // simultaneous-step engine).  CI emits this as BENCH_scheduler.json
  // and the perf smoke job gates every row's exact counts (moves, steps,
  // rounds equal; guard evaluations at most the baseline) and its rates
  // (a floor at half the baseline).  The model-check entry tracks
  // exhaustive-verification throughput: the src/mc explorer at 8 threads
  // vs 1 thread (its speedup depends on the runner's core count, so the
  // perf gate checks it only where both runs saw more than one core).
  constexpr std::uint64_t kSeed = 0x5CED;
  std::vector<Scenario> out;
  // 200k moves keep each timed run in the tens of milliseconds, long
  // enough for a rate that the gate's floor can compare across runs.
  for (const char* topo : {"ring:1024", "grid:32x32"}) {
    Scenario s = triple(ProtocolKind::kScheduler, DaemonKind::kRoundRobin,
                        topo, 3, kSeed);
    s.budget = 200'000;  // moves per run
    out.push_back(s);
  }
  {
    Scenario s = triple(ProtocolKind::kScheduler, DaemonKind::kSynchronous,
                        "grid:32x32", 3, kSeed);
    s.budget = 200'000;
    out.push_back(s);
  }
  {
    // Large-n row: at ring:100000 a randomized DFTNO start keeps Θ(n)
    // processors enabled for the whole run, so any per-step work
    // proportional to the enabled set (materializing the move vector,
    // rescanning the guards) costs Θ(n) per move and collapses the rate
    // by orders of magnitude; a full rescan also multiplies the guard
    // evaluations.
    Scenario s = triple(ProtocolKind::kScheduler, DaemonKind::kRoundRobin,
                        "ring:100000", 3, kSeed);
    s.budget = 4'000;
    out.push_back(s);
  }
  {
    // Dense synchronous large-n row: from a random DFTNO start nearly
    // every processor is enabled, so the first few synchronous steps
    // execute Θ(n) simultaneous moves each; a budget of ~2n keeps the
    // whole run inside that dense transient.  Its LexDfsTree run steps
    // the fat-state protocol through the columnar engine.
    Scenario s = triple(ProtocolKind::kScheduler, DaemonKind::kSynchronous,
                        "ring:100000", 3, kSeed);
    s.budget = 200'000;
    out.push_back(s);
  }
  out.push_back(
      modelCheckScenario(McTarget::kDftcFault, "ring:10", 3, 8'000'000));
  return out;
}

std::vector<Scenario> modelCheckPreset() {
  // Exhaustive self-stabilization proofs at preset scale: within every
  // trial the explorer's result at mc-threads workers must be identical
  // to its 1-thread result.  The dftc-fault entry verifies the 1-fault
  // recovery cone (reachable mode) on a ring beyond full-space reach.
  std::vector<Scenario> out;
  for (const char* topo : {"path:3", "ring:3", "path:4", "star:4"})
    out.push_back(modelCheckScenario(McTarget::kDftc, topo, 1, 1ull << 22));
  out.push_back(modelCheckScenario(McTarget::kDftno, "path:2", 1, 1ull << 12));
  out.push_back(
      modelCheckScenario(McTarget::kDftcFault, "ring:10", 1, 8'000'000));
  return out;
}

std::vector<Scenario> resiliencePreset() {
  // Adversarial resilience campaigns (src/resil): the searching daemon
  // hunts worst-case schedules on DFTNO rings — against the uniform
  // central daemon as the random reference — under scripted fault
  // plans.  Every row also certifies determinism: rerunning the search
  // from the same seed and replaying the recorded schedule must both
  // be bit-identical (rerun_identity / replay_identity metrics, gated
  // by tools/check_perf_regression.py).
  constexpr std::uint64_t kSeed = 0xAD7E;
  std::vector<Scenario> out;
  const auto add = [&out](const std::string& topo, const std::string& plan,
                          const std::string& adversary, const char* tag) {
    Scenario s = triple(ProtocolKind::kResilience, DaemonKind::kCentral,
                        topo, 4, kSeed);
    s.budget = 2'000'000;
    s.faultPlan = plan;
    s.adversary = adversary;
    s.name += std::string("/") + tag;
    out.push_back(s);
  };
  add("ring:16", "", "greedy", "adv=greedy");
  add("ring:16", "", "lookahead", "adv=lookahead");
  add("ring:16", "burst:k=4@round=2;burst:k=4@round=6", "greedy",
      "burst/adv=greedy");
  add("ring:24", "scramble@round=2;repeat:2@every=6", "greedy",
      "scramble/adv=greedy");
  add("ring:24", "crash:p=3@round=4", "lookahead", "crash/adv=lookahead");
  return out;
}

std::vector<Scenario> obsPreset() {
  // Telemetry overhead proof (CI gate): the ring:1e5 scheduler hot loop
  // timed with obs enabled vs disabled, same budget and seed as the
  // scheduler preset's large-n row.  The name carries the obs/ prefix
  // so tools/check_perf_regression.py dispatches to its overhead gate
  // (obs_overhead_pct < 2).
  constexpr std::uint64_t kSeed = 0x5CED;
  std::vector<Scenario> out;
  // Budget 200k (not the scheduler row's 4k): a percent-level
  // comparison needs each timed run to be ~60ms, not ~6ms, or scheduler
  // jitter swamps the signal and the 2% gate flakes.
  Scenario s = triple(ProtocolKind::kObsOverhead, DaemonKind::kRoundRobin,
                      "ring:100000", 3, kSeed);
  s.budget = 200'000;
  s.name = "obs/overhead/ring:100000";
  out.push_back(s);
  return out;
}

std::vector<Scenario> daemonSweepPreset() {
  constexpr std::uint64_t kSeed = 0xDAE;
  std::vector<Scenario> out;
  for (DaemonKind daemon :
       {DaemonKind::kCentral, DaemonKind::kDistributed,
        DaemonKind::kSynchronous, DaemonKind::kRoundRobin})
    out.push_back(
        triple(ProtocolKind::kDftno, daemon, "grid:4x5", 10, kSeed));
  for (DaemonKind daemon :
       {DaemonKind::kCentral, DaemonKind::kDistributed,
        DaemonKind::kSynchronous, DaemonKind::kRoundRobin,
        DaemonKind::kAdversarial})
    out.push_back(triple(ProtocolKind::kStno, daemon, "grid:4x5", 10, kSeed));
  return out;
}

}  // namespace

ProtocolKind parseProtocolKind(const std::string& name) {
  constexpr ProtocolKind kKinds[] = {
      ProtocolKind::kDftno,          ProtocolKind::kStno,
      ProtocolKind::kStnoFixedTree,  ProtocolKind::kDftnoChurn,
      ProtocolKind::kBaselineChurn,  ProtocolKind::kDftc,
      ProtocolKind::kBfsTree,        ProtocolKind::kLexDfsTree,
      ProtocolKind::kDftnoRecovery,  ProtocolKind::kStnoRecovery,
      ProtocolKind::kStnoCrashReset, ProtocolKind::kAblationNaming,
      ProtocolKind::kSpace,          ProtocolKind::kChordalProps,
      ProtocolKind::kRouting,        ProtocolKind::kScheduler,
      ProtocolKind::kModelCheck,     ProtocolKind::kResilience,
      ProtocolKind::kObsOverhead};
  for (ProtocolKind kind : kKinds)
    if (protocolKindName(kind) == name) return kind;
  std::string msg = "unknown protocol '" + name + "'; valid kinds:";
  for (ProtocolKind kind : kKinds) {
    msg += ' ';
    msg += protocolKindName(kind);
  }
  throw std::invalid_argument(msg);
}

DaemonKind parseDaemonKind(const std::string& name) {
  for (DaemonKind kind :
       {DaemonKind::kCentral, DaemonKind::kDistributed,
        DaemonKind::kSynchronous, DaemonKind::kRoundRobin,
        DaemonKind::kAdversarial})
    if (daemonKindName(kind) == name) return kind;
  throw std::invalid_argument("unknown daemon '" + name + "'");
}

McTarget parseMcTarget(const std::string& name) {
  for (McTarget target :
       {McTarget::kDftc, McTarget::kDftno, McTarget::kDftcFault})
    if (mcTargetName(target) == name) return target;
  throw std::invalid_argument("unknown model-check target '" + name + "'");
}

Scenario parseScenario(const std::string& name) {
  const auto first = name.find('/');
  const auto second =
      first == std::string::npos ? std::string::npos : name.find('/', first + 1);
  if (second == std::string::npos || second + 1 == name.size())
    throw std::invalid_argument(
        "scenario '" + name + "' is not protocol/daemon/topology");
  Scenario s;
  // The model-check kind carries its target as a ":"-suffix on the
  // protocol token, e.g. "model-check:dftc/central/path:3".
  std::string protocol = name.substr(0, first);
  if (const auto colon = protocol.find(':'); colon != std::string::npos) {
    s.mcTarget = parseMcTarget(protocol.substr(colon + 1));
    protocol.resize(colon);
    if (protocol != protocolKindName(ProtocolKind::kModelCheck))
      throw std::invalid_argument("only model-check takes a ':target'");
  }
  s.protocol = parseProtocolKind(protocol);
  s.daemon = parseDaemonKind(name.substr(first + 1, second - first - 1));
  s.topology = TopologySpec::parse(name.substr(second + 1));
  s.name = name;
  if (isChurnProtocol(s.protocol)) s.budget = kDefaultChurnHorizon;
  if (s.protocol == ProtocolKind::kModelCheck)
    s.budget = static_cast<StepCount>(1ull << 22);  // maxStates cap
  if (s.protocol == ProtocolKind::kResilience)
    s.budget = 2'000'000;  // per-episode move budget; search steps are
                           // O(#enabled · n · actions), so the default
                           // convergence budget would be far too large
  if (s.protocol == ProtocolKind::kObsOverhead)
    s.budget = 200'000;  // moves measured per telemetry mode per rep
  return s;
}

std::vector<std::string> presetNames() {
  return {"dftno-scaling", "stno-height", "stno-star-control",
          "stno-scaling", "churn", "daemon-sweep", "substrate",
          "end-to-end", "fault-recovery", "ablation-naming", "space", "chordal-props",
          "routing", "scheduler", "model-check", "resilience", "obs"};
}

std::vector<Scenario> makePreset(const std::string& name) {
  if (name == "dftno-scaling") return dftnoScalingPreset();
  if (name == "stno-height") return stnoHeightPreset();
  if (name == "stno-star-control") return stnoStarControlPreset();
  if (name == "stno-scaling") return stnoScalingPreset();
  if (name == "churn") return churnPreset();
  if (name == "daemon-sweep") return daemonSweepPreset();
  if (name == "substrate") return substratePreset();
  if (name == "end-to-end") return endToEndPreset();
  if (name == "fault-recovery") return faultRecoveryPreset();
  if (name == "ablation-naming") return ablationNamingPreset();
  if (name == "space") return spacePreset();
  if (name == "chordal-props") return chordalPropsPreset();
  if (name == "routing") return routingPreset();
  if (name == "scheduler") return schedulerPreset();
  if (name == "model-check") return modelCheckPreset();
  if (name == "resilience") return resiliencePreset();
  if (name == "obs") return obsPreset();
  throw std::invalid_argument("unknown preset '" + name + "'");
}

std::vector<Scenario> resolve(const std::string& name) {
  for (const std::string& preset : presetNames())
    if (name == preset) return makePreset(name);
  return {parseScenario(name)};
}

std::vector<Scenario> filterOnly(std::vector<Scenario> scenarios,
                                 const std::string& only) {
  std::vector<Scenario> all = std::move(scenarios);
  std::vector<Scenario> out;
  for (Scenario& s : all)
    if (s.name == only) out.push_back(std::move(s));
  if (out.empty()) {
    std::string msg = "no scenario named '" + only + "'; valid names:";
    for (const Scenario& s : all) msg += "\n  " + s.name;
    throw std::invalid_argument(msg);
  }
  return out;
}

std::vector<Scenario> loadScenarios(std::istream& in) {
  std::vector<Scenario> out;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    std::istringstream fields(line);
    std::string protocol, daemon, topology;
    if (!(fields >> protocol) || protocol[0] == '#') continue;
    auto fail = [lineNo](const std::string& what) -> std::invalid_argument {
      return std::invalid_argument("scenario file line " +
                                   std::to_string(lineNo) + ": " + what);
    };
    if (!(fields >> daemon >> topology))
      throw fail("expected 'protocol daemon topology [key=value ...]'");
    Scenario s;
    try {
      s = parseScenario(protocol + "/" + daemon + "/" + topology);
    } catch (const std::invalid_argument& e) {
      throw fail(e.what());
    }
    std::string kv;
    while (fields >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size())
        throw fail("malformed override '" + kv + "' (want key=value)");
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      // Full-consumption parses: "trials=3x" or "budget=1e6" must be
      // rejected, not silently truncated at the first non-numeric char.
      bool known = true;
      std::size_t used = 0;
      try {
        if (key == "trials") s.trials = std::stoi(value, &used);
        else if (key == "seed") s.seed = std::stoull(value, &used);
        else if (key == "budget") s.budget = std::stoll(value, &used);
        else if (key == "rate") s.faultRate = std::stod(value, &used);
        else if (key == "k") s.faultK = std::stoi(value, &used);
        else if (key == "mc-threads") s.mcThreads = std::stoi(value, &used);
        else if (key == "lookahead") s.lookahead = std::stoi(value, &used);
        // String-valued keys consume the whole value by construction.
        // A fault plan must be whitespace-free here (the canonical
        // rendering is): the line is whitespace-tokenized.
        else if (key == "fault-plan") { s.faultPlan = value; used = value.size(); }
        else if (key == "adversary") { s.adversary = value; used = value.size(); }
        else known = false;
      } catch (const std::invalid_argument&) {
        throw fail("bad value in '" + kv + "'");
      } catch (const std::out_of_range&) {
        throw fail("value out of range in '" + kv + "'");
      }
      if (!known) throw fail("unknown key '" + key + "'");
      if (used != value.size())
        throw fail("trailing junk in '" + kv + "'");
    }
    if (s.trials <= 0) throw fail("trials must be positive");
    try {
      validateLimits(s);
    } catch (const std::invalid_argument& e) {
      throw fail(e.what());
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Scenario> loadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file " + path);
  return loadScenarios(in);
}

}  // namespace ssno::exp
