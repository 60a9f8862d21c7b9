// Scenario registry: names → runnable scenarios.
//
// Two kinds of names resolve:
//  * dynamic triples  "protocol/daemon/topology", e.g.
//    "stno/distributed/torus:4x4" or "dftno/round-robin/chordring:16:2,5" —
//    parsed on the fly (protocol and daemon by name, topology by the
//    TopologySpec grammar).  The model-check kind takes its verification
//    target as a suffix: "model-check:dftc/central/path:3";
//  * presets — curated sweeps reproducing the paper experiments
//    (dftno-scaling, stno-height, stno-star-control, stno-scaling, churn,
//    daemon-sweep, end-to-end, ...), each expanding to a vector of
//    scenarios.  exp/claims.hpp fits four of them to the paper's bounds.
//
// resolve() accepts either and returns the scenario list ready for an
// ExperimentRunner.
//
// Scenario files (exp_cli --scenarios) hold one scenario per line so
// that sweeps can be version-controlled:
//
//   # comment lines and blank lines are skipped
//   protocol daemon topology [key=value ...]
//   dftno round-robin ring:64 trials=5 seed=7
//   dftno-churn round-robin grid:3x4 rate=0.002 budget=40000
//   model-check:dftc central path:3 mc-threads=4
//
// Recognized keys: trials, seed, budget, rate, k (faultK), mc-threads
// (explorer threads, >= 0; 0 = the usable cores), fault-plan
// (resil::FaultPlan grammar, whitespace-free), adversary ("greedy" |
// "lookahead"), lookahead (rollout depth).  A model-check line's budget
// caps its explored states and must be positive.
#ifndef SSNO_EXP_SCENARIO_HPP
#define SSNO_EXP_SCENARIO_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace ssno::exp {

/// Inverse of protocolKindName(); throws std::invalid_argument.
[[nodiscard]] ProtocolKind parseProtocolKind(const std::string& name);

/// Inverse of daemonKindName(); throws std::invalid_argument.
[[nodiscard]] DaemonKind parseDaemonKind(const std::string& name);

/// Inverse of mcTargetName(); throws std::invalid_argument.
[[nodiscard]] McTarget parseMcTarget(const std::string& name);

/// Parses a "protocol/daemon/topology" triple; throws on malformed input.
[[nodiscard]] Scenario parseScenario(const std::string& name);

/// Names of the curated preset sweeps.
[[nodiscard]] std::vector<std::string> presetNames();

/// Expands a preset to its scenario list; throws on unknown names.
[[nodiscard]] std::vector<Scenario> makePreset(const std::string& name);

/// Preset name → its scenarios; otherwise a single parsed triple.
[[nodiscard]] std::vector<Scenario> resolve(const std::string& name);

/// Keeps only the scenarios named `only` (exp_cli `run --only`, serve
/// submit "only").  Throws std::invalid_argument listing every valid
/// name when nothing matches, so a typo'd preset row is self-diagnosing.
[[nodiscard]] std::vector<Scenario> filterOnly(std::vector<Scenario> scenarios,
                                               const std::string& only);

/// Parses a scenario file (see the grammar above); throws
/// std::invalid_argument with the line number on malformed input.
[[nodiscard]] std::vector<Scenario> loadScenarios(std::istream& in);

/// Opens and parses `path`; throws std::runtime_error when unreadable.
[[nodiscard]] std::vector<Scenario> loadScenarioFile(const std::string& path);

}  // namespace ssno::exp

#endif  // SSNO_EXP_SCENARIO_HPP
