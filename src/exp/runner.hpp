// ExperimentRunner — multi-threaded scenario execution with
// thread-count-independent results.
//
// A Scenario is pure data: protocol kind × daemon kind × topology spec ×
// trial count × seed × budget.  The runner fans the trials of a scenario
// out over a worker pool; every trial derives its own RNG stream from
// (scenario seed, trial index) via a splitmix64 mix, writes into its own
// result slot, and aggregation walks the slots in trial order — so the
// aggregated ScenarioResult is bit-identical whether the scenario ran on
// one thread or sixteen (proved by tests/runner_test.cpp).
//
// Trials that exhaust their budget without converging are *counted*, not
// silently dropped: ScenarioResult::failedTrials feeds every report.
#ifndef SSNO_EXP_RUNNER_HPP
#define SSNO_EXP_RUNNER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/daemon.hpp"
#include "obs/stats.hpp"
#include "core/types.hpp"
#include "exp/topology.hpp"

namespace ssno::exp {

enum class ProtocolKind {
  kDftno,          ///< composed token-circulation orientation (Ch. 3)
  kStno,           ///< composed spanning-tree orientation (Ch. 4)
  kStnoFixedTree,  ///< STNO over the fixed port-order DFS tree
  kDftnoChurn,     ///< DFTNO under sustained fault churn (availability)
  kBaselineChurn,  ///< init-based orientation under the same churn
  kDftc,           ///< token-circulation substrate alone (stabilization)
  kBfsTree,        ///< BFS spanning-tree substrate alone (quiescence)
  kLexDfsTree,     ///< lex-path DFS spanning-tree substrate (quiescence)
  kDftnoRecovery,  ///< DFTNO: converge, corrupt faultK nodes, re-converge
  kStnoRecovery,   ///< STNO: same fault-containment measurement
  kStnoCrashReset, ///< STNO: crash-and-reset one processor, re-converge
  kAblationNaming, ///< Ch. 5 naming comparison (DFTNO vs STNO over trees)
  kSpace,          ///< per-node space accounting (deterministic)
  kChordalProps,   ///< §2.2 chordal-labeling properties (deterministic)
  kRouting,        ///< traversal/routing message complexity (deterministic)
  kScheduler,      ///< simulator throughput and exact step counts of the
                   ///< production pipeline (DFTNO; LexDfsTree too when
                   ///< synchronous)
  kModelCheck,     ///< exhaustive verification throughput: the src/mc
                   ///< explorer at mc-threads workers vs 1 thread (thread
                   ///< scaling), plus an identical-result check
  kResilience,     ///< adversarial resilience campaign on DFTNO: worst-case
                   ///< daemon search vs a random reference, fault-plan
                   ///< injection, schedule replay certification (src/resil)
  kObsOverhead,    ///< telemetry overhead proof: the ring:1e5 scheduler
                   ///< hot loop timed with obs enabled vs disabled
                   ///< (interleaved best-of reps; gated < 2% in CI)
};

[[nodiscard]] std::string protocolKindName(ProtocolKind kind);

/// Which protocol a model-check scenario verifies, and over which state
/// set: full product space, or the region reachable from every
/// single-node corruption of the clean configuration (the k=1
/// fault-recovery cone — exhaustive at much larger n than full space).
enum class McTarget {
  kDftc,       ///< substrate, full space, weak fairness
  kDftno,      ///< composed DFTNO system, full space, weak fairness
  kDftcFault,  ///< substrate, 1-fault reachable region, weak fairness
};

[[nodiscard]] std::string mcTargetName(McTarget target);

/// True for the open-ended fault-churn protocols, whose budget is a step
/// horizon rather than a convergence bound.
[[nodiscard]] bool isChurnProtocol(ProtocolKind kind);

/// True for the fault-recovery kinds, which read Scenario::faultK.
[[nodiscard]] bool usesFaultK(ProtocolKind kind);

/// Default step horizon for churn scenarios (a convergence-style budget
/// of 2e8 steps would run for hours).
inline constexpr StepCount kDefaultChurnHorizon = 40'000;

/// "8/10" convergence label shared by tables and reports.
[[nodiscard]] std::string convergedLabel(int trials, int failedTrials);

struct Scenario {
  std::string name;  ///< registry key, e.g. "stno/distributed/torus:4x4"
  ProtocolKind protocol = ProtocolKind::kStno;
  DaemonKind daemon = DaemonKind::kDistributed;
  TopologySpec topology;
  int trials = 10;
  std::uint64_t seed = 0;
  /// Move budget per convergence phase; the churn protocols reuse it as
  /// the step horizon, the scheduler kind as the measured move count and
  /// model-check as its cap on explored states (must be positive there).
  StepCount budget = 200'000'000;
  double faultRate = 0.0;  ///< churn protocols: P(one-node fault per move)
  int faultK = 1;          ///< recovery protocols: processors corrupted
  McTarget mcTarget = McTarget::kDftc;  ///< model-check: verified protocol
  /// model-check: explorer worker threads; 0 = the usable cores,
  /// negative is rejected.
  int mcThreads = 8;
  /// Resilience scenarios (kResilience) only:
  std::string faultPlan;   ///< resil::FaultPlan grammar text ("" = no faults)
  std::string adversary = "greedy";  ///< "greedy" | "lookahead"
  int lookahead = 2;       ///< rollout depth when adversary == "lookahead"
};

/// Throws std::invalid_argument naming the offending key when a
/// scenario's limits are unusable: mc-threads < 0, a fault rate outside
/// [0, 1] or NaN (a probability, drawn by Rng::chance), or a budget <= 0
/// (a model check's cap on explored states, every other kind's move
/// budget or step horizon).  Every override from outside — exp_cli's
/// --budget and --rate, a scenario-file line, a canonical scenario, a
/// served request — is checked with it.
void validateLimits(const Scenario& s);

/// One trial's named metric samples, in a protocol-defined fixed order.
struct TrialResult {
  bool converged = true;
  std::vector<std::pair<std::string, double>> metrics;
  /// Wall-clock seconds the trial took, stamped by the runner around
  /// runTrial.  Feeds ScenarioResult::timing — observability data only,
  /// never part of metrics, CSV rows, or cached result payloads.
  double wallSeconds = 0;
  /// sim_guard_evals_total delta across the trial, stamped only when the
  /// runner's timing breakdown is on (-1 = not measured).  Process-wide
  /// counters make the delta meaningful only at --threads 1.
  double guardEvals = -1;
};

struct ScenarioResult {
  Scenario scenario;
  int nodeCount = 0;
  int edgeCount = 0;
  int trials = 0;
  int failedTrials = 0;  ///< budget exhausted before convergence
  /// Detected hardware cores on the machine that ran the scenario
  /// (recorded in reports; 1 flags core-count-dependent metrics as
  /// uninformative, e.g. model-check thread-scaling speedups).
  int cores = 0;
  /// Per-metric summaries over the converged trials only.
  std::map<std::string, Summary> metrics;
  /// Timing breakdown over ALL trials (runner-stamped wall clock, plus
  /// any future phase timings).  JSON reports emit it as a "timing"
  /// object; it never enters CSV rows or cached result payloads, so
  /// byte-identity of those artifacts is unaffected.
  std::map<std::string, Summary> timing;

  /// Summary for `name`; an empty (count == 0) Summary if absent.
  [[nodiscard]] Summary metric(const std::string& name) const;
};

/// The per-trial RNG seed: a splitmix64 mix of scenario seed and trial
/// index, so trial streams are decorrelated and independent of threading.
[[nodiscard]] std::uint64_t trialSeed(std::uint64_t scenarioSeed, int trial);

/// Executes a single trial of `s` on `g` (exposed for tests and for
/// callers that need raw per-trial data).
[[nodiscard]] TrialResult runTrial(const Graph& g, const Scenario& s,
                                   std::uint64_t seed);

class ExperimentRunner {
 public:
  /// threads == 0 picks the usable cores (usableCores(),
  /// core/parallel.hpp).
  explicit ExperimentRunner(int threads = 0);

  [[nodiscard]] int threads() const { return threads_; }

  /// Opt-in timing breakdown (exp_cli --timing): every trial additionally
  /// records its sim_guard_evals_total delta, and aggregation derives a
  /// guards-per-second rate into ScenarioResult::timing.  Default OFF —
  /// the timing map is JSON-only, and with the flag off reports stay
  /// byte-identical.  The counters are process-wide, so the per-trial
  /// deltas are only meaningful at --threads 1.
  void setTimingBreakdown(bool on) { timing_ = on; }

  /// Builds the scenario's topology and fans its trials over the pool.
  [[nodiscard]] ScenarioResult run(const Scenario& s) const;

  /// Same, but on a caller-provided graph (the topology spec is ignored);
  /// lets benches and tests run scenarios on ad-hoc graphs.
  [[nodiscard]] ScenarioResult runOnGraph(const Scenario& s,
                                          const Graph& g) const;

  /// Runs all scenarios, fanning the flattened (scenario, trial) job list
  /// over one worker pool — trials of different scenarios execute
  /// concurrently.  Result order follows scenario order and every trial
  /// keeps its trialSeed(scenario.seed, trial) stream, so the output is
  /// bit-identical to running the scenarios one after another.
  [[nodiscard]] std::vector<ScenarioResult> runAll(
      const std::vector<Scenario>& scenarios) const;

 private:
  int threads_;
  bool timing_ = false;
};

}  // namespace ssno::exp

#endif  // SSNO_EXP_RUNNER_HPP
