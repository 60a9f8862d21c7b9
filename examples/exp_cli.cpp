// exp_cli — drive the src/exp experiment harness from the command line.
//
//   exp_cli list
//   exp_cli run <scenario-or-preset> [options]
//   exp_cli run --scenarios FILE [options]
//   exp_cli claims [options]
//   exp_cli spill-probe --ids N --capacity C [options]
//
// A scenario is either a preset name (see `list`) or a dynamic triple
// "protocol/daemon/topology", e.g. stno/distributed/torus:4x4 or
// dftno/round-robin/chordring:16:2,5.  A scenario file holds one
// "protocol daemon topology [key=value ...]" per line (# = comment), so
// sweeps can be version-controlled; see src/exp/scenario.hpp.
//
// `claims` runs the four presets that carry the paper's complexity
// claims and appends one least-squares fit row per series (see
// src/exp/claims.hpp); CI gates its JSON against BENCH_claims.json.  It
// takes the output and observability options, not the ones that change
// scenarios (--trials, --seed, --budget, --rate, --only, --scenarios,
// --cache-dir).
//
// Options:
//   --scenarios F read scenarios from file F (instead of a name)
//   --trials N    trials per scenario        (default: scenario's own)
//   --threads N   worker threads             (default: usable cores)
//   --seed S      base RNG seed              (default: scenario's own)
//   --budget B    move budget / churn horizon
//   --rate R      fault rate (churn protocols)
//   --only NAME   keep only the scenario named NAME
//   --cache-dir D memoize results in the content-addressed cache at D
//   --csv FILE    write long-form CSV        (- for stdout)
//   --json FILE   write JSON                 (- for stdout)
//   --trace-out F record a Chrome trace-event JSON of the whole run to F
//                 (load in Perfetto or chrome://tracing)
//   --metrics F   write the Prometheus text exposition of every obs
//                 counter/gauge/histogram after the run (- for stdout)
//   --timing      opt-in timing breakdown: stamp each trial's
//                 sim_guard_evals_total delta and report a
//                 guard_evals_per_sec rate in the JSON "timing" object
//                 (counters are process-wide — meaningful at --threads 1;
//                 default off, so reports stay byte-identical)
//   --quiet       suppress the human-readable table
//   --io-faults S install a deterministic I/O fault schedule before the
//                 run (grammar in src/io/fault.hpp)
//
// `spill-probe` exercises the mc/spill run-file path end to end for the
// chaos harness: append `--ids N` deterministic ids through a
// FrontierSpill with `--capacity C` (forcing ceil(N/C) run files in
// `--dir`, default the system temp dir), drain everything back, and
// verify the multiset matches exactly.  Exit 0 = exact drain, 1 = an
// exact drain whose --metrics file could not be written, 3 = a named
// spill error (CRC/magic/truncation — the detected-loss path), 4 =
// silent mismatch (must never happen), 86 = an injected crash.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/claims.hpp"
#include "exp/fmt.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "io/fault.hpp"
#include "mc/spill.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"

namespace {

using ssno::exp::ExperimentRunner;
using ssno::exp::parseFlag;
using ssno::exp::Scenario;
using ssno::exp::ScenarioResult;

int usage() {
  std::fprintf(stderr,
               "usage: exp_cli list\n"
               "       exp_cli run <scenario-or-preset> [options]\n"
               "       exp_cli run --scenarios FILE [options]\n"
               "       exp_cli claims [options except --trials, --seed,\n"
               "           --budget, --rate, --only, --scenarios,\n"
               "           --cache-dir]\n"
               "       exp_cli spill-probe --ids N --capacity C [--dir D]\n"
               "           [--io-faults SPEC] [--metrics FILE]\n"
               "options: [--trials N] [--threads N] [--seed S] [--budget B]\n"
               "         [--rate R] [--only NAME] [--cache-dir DIR]\n"
               "         [--csv FILE] [--json FILE] [--trace-out FILE]\n"
               "         [--metrics FILE] [--timing] [--quiet]\n"
               "         [--io-faults SPEC]\n");
  return 2;
}

/// Writes every obs metric to `path` (- = stdout); false, with the path
/// named on stderr, when the file cannot be written.
bool writeMetrics(const std::string& path) {
  if (path.empty()) return true;
  const std::string text = ssno::obs::Registry::global().renderPrometheus();
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(path);
  out << text;
  out.close();
  if (out) return true;
  std::fprintf(stderr, "exp_cli: cannot write metrics to %s\n", path.c_str());
  return false;
}

/// See the header comment for the exit-code taxonomy.
int spillProbe(const std::vector<std::string>& args) {
  std::uint64_t ids = 0, capacity = 0;
  std::string dir, ioFaults, metricsPath;
  try {
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string flag = args[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= args.size())
          throw std::invalid_argument(flag + " needs a value");
        return args[++i];
      };
      if (flag == "--ids") ids = parseFlag<std::uint64_t>(flag, value());
      else if (flag == "--capacity")
        capacity = parseFlag<std::uint64_t>(flag, value());
      else if (flag == "--dir") dir = value();
      else if (flag == "--io-faults") ioFaults = value();
      else if (flag == "--metrics") metricsPath = value();
      else throw std::invalid_argument("unknown option " + flag);
    }
    if (ids == 0 || capacity == 0)
      throw std::invalid_argument("spill-probe needs --ids and --capacity");
    // Probe setup, not probed state — so before the schedule installs.
    if (!dir.empty()) std::filesystem::create_directories(dir);
    if (!ioFaults.empty())
      ssno::io::installFaultSchedule(ssno::io::FaultSchedule::parse(ioFaults));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exp_cli: %s\n", e.what());
    return 2;
  }
  try {
    ssno::mc::FrontierSpill spill(capacity, dir);
    // Deterministic, order-insensitive payload: id i carries a golden-
    // ratio hash so torn bytes can't alias a valid permutation.
    std::vector<std::uint64_t> expected(ids);
    for (std::uint64_t i = 0; i < ids; ++i)
      expected[i] = (i + 1) * 0x9E3779B97F4A7C15ULL;
    constexpr std::size_t kBatch = 17;  // exercise partial appends
    for (std::uint64_t at = 0; at < ids; at += kBatch)
      spill.append(expected.data() + at,
                   std::min<std::size_t>(kBatch, ids - at));
    std::vector<std::uint64_t> drained, chunk;
    while (spill.drainChunk(chunk, 64))
      drained.insert(drained.end(), chunk.begin(), chunk.end());
    std::sort(expected.begin(), expected.end());
    std::sort(drained.begin(), drained.end());
    const bool metricsWritten = writeMetrics(metricsPath);
    if (drained != expected) {
      std::fprintf(stderr,
                   "exp_cli: spill-probe SILENT MISMATCH: %zu ids out, "
                   "%zu expected\n",
                   drained.size(), expected.size());
      return 4;
    }
    if (!metricsWritten) return 1;
    std::fprintf(stderr, "exp_cli: spill-probe ok (%llu ids, %llu runs)\n",
                 static_cast<unsigned long long>(ids),
                 static_cast<unsigned long long>(spill.runsWritten()));
    return 0;
  } catch (const std::exception& e) {
    // Detected loss: the named-error contract.
    std::fprintf(stderr, "exp_cli: spill-probe error: %s\n", e.what());
    writeMetrics(metricsPath);
    return 3;
  }
}

void listScenarios() {
  std::printf("presets:\n");
  for (const std::string& name : ssno::exp::presetNames()) {
    std::printf("  %-20s (%zu scenarios)\n", name.c_str(),
                ssno::exp::makePreset(name).size());
  }
  std::printf(
      "\ndynamic scenarios: protocol/daemon/topology\n"
      "  protocols: dftno stno stno-fixed-tree dftno-churn baseline-churn\n"
      "             dftc bfs-tree lex-dfs-tree dftno-recovery stno-recovery\n"
      "             stno-crash-reset ablation-naming space chordal-props\n"
      "             routing scheduler\n"
      "             model-check[:dftc|:dftno|:dftc-fault]\n"
      "  daemons:   central distributed synchronous round-robin adversarial\n"
      "  topology:  ring:N path:N star:N complete:N hypercube:D grid:RxC\n"
      "             torus:RxC kary:NxK caterpillar:SxL lollipop:CxT\n"
      "             rtree:N[:seed] er:N:P[:seed] chordring:N:c1,c2,...\n"
      "             dreg:N:D[:seed] plaw:N:A[:seed]\n"
      "  example:   exp_cli run stno/distributed/torus:4x4 --trials 20\n"
      "             exp_cli run model-check:dftc/central/path:4\n");
}

void emit(const std::string& path, const std::string& payload,
          const char* what) {
  if (path == "-") {
    std::cout << payload;
    return;
  }
  std::ofstream out(path);
  out << payload;
  out.close();
  if (!out)
    throw std::runtime_error(std::string("cannot write ") + what + " to " +
                             path);
  std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  if (args[0] == "list") {
    listScenarios();
    return 0;
  }
  if (args[0] == "spill-probe") return spillProbe(args);
  const bool claims = args[0] == "claims";
  if (!claims && (args[0] != "run" || args.size() < 2)) return usage();

  std::string target, scenarioFile;
  std::size_t optionsFrom = 1;
  if (!claims && args[1] == "--scenarios") {
    if (args.size() < 3) return usage();
    scenarioFile = args[2];
    optionsFrom = 3;
  } else if (!claims) {
    target = args[1];
    optionsFrom = 2;
  }
  std::optional<int> trials, threads;
  std::optional<std::uint64_t> seed;
  std::optional<ssno::StepCount> budget;
  std::optional<double> rate;
  std::string csvPath, jsonPath, only, cacheDir, tracePath, metricsPath,
      ioFaults;
  bool quiet = false;
  bool timing = false;
  try {
    for (std::size_t i = optionsFrom; i < args.size(); ++i) {
      const std::string flag = args[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= args.size())
          throw std::invalid_argument(flag + " needs a value");
        return args[++i];
      };
      if (flag == "--trials") trials = parseFlag<int>(flag, value());
      else if (flag == "--threads") threads = parseFlag<int>(flag, value());
      else if (flag == "--seed")
        seed = parseFlag<std::uint64_t>(flag, value());
      else if (flag == "--budget")
        budget = parseFlag<ssno::StepCount>(flag, value());
      else if (flag == "--rate") rate = parseFlag<double>(flag, value());
      else if (flag == "--only") only = value();
      else if (flag == "--cache-dir") cacheDir = value();
      else if (flag == "--csv") csvPath = value();
      else if (flag == "--json") jsonPath = value();
      else if (flag == "--trace-out") tracePath = value();
      else if (flag == "--metrics") metricsPath = value();
      else if (flag == "--timing") timing = true;
      else if (flag == "--quiet") quiet = true;
      else if (flag == "--scenarios") scenarioFile = value();
      else if (flag == "--io-faults") ioFaults = value();
      else throw std::invalid_argument("unknown option " + flag);
    }
    if (threads && *threads < 0)
      throw std::invalid_argument(
          "--threads must be >= 0 (0 = the usable cores), got " +
          std::to_string(*threads));
    if (claims && (trials || seed || budget || rate || !only.empty() ||
                   !scenarioFile.empty() || !cacheDir.empty()))
      throw std::invalid_argument(
          "claims runs its presets as recorded; it takes no --trials, "
          "--seed, --budget, --rate, --only, --scenarios or --cache-dir");
    if (!ioFaults.empty())
      ssno::io::installFaultSchedule(ssno::io::FaultSchedule::parse(ioFaults));

    if (!target.empty() && !scenarioFile.empty())
      throw std::invalid_argument(
          "give either a scenario name or --scenarios, not both");
    std::vector<Scenario> scenarios =
        claims                 ? std::vector<Scenario>{}
        : scenarioFile.empty() ? ssno::exp::resolve(target)
                               : ssno::exp::loadScenarioFile(scenarioFile);
    for (Scenario& s : scenarios) {
      if (trials) s.trials = *trials;
      if (seed) s.seed = *seed;
      if (budget) s.budget = *budget;
      if (rate) {
        s.faultRate = *rate;
        // Preset names bake the rate in; keep the label truthful.
        if (const auto tag = s.name.rfind("/rate="); tag != std::string::npos) {
          std::ostringstream label;
          label << s.name.substr(0, tag) << "/rate=" << *rate;
          s.name = label.str();
        }
      }
      ssno::exp::validateLimits(s);
    }
    // A --rate override can collapse a preset's rate variants into
    // identical scenarios; run each distinct name once.  Scenario files
    // are exempt: same-named lines may differ in key=value overrides.
    if (scenarioFile.empty()) {
      std::set<std::string> seen;
      std::erase_if(scenarios, [&seen](const Scenario& s) {
        return !seen.insert(s.name).second;
      });
    }

    if (!only.empty())
      scenarios = ssno::exp::filterOnly(std::move(scenarios), only);

    std::unique_ptr<ssno::serve::ResultCache> cache;
    if (!cacheDir.empty())
      cache = std::make_unique<ssno::serve::ResultCache>(cacheDir);

    ExperimentRunner runner(threads.value_or(0));
    runner.setTimingBreakdown(timing);
    if (!tracePath.empty()) ssno::obs::startTracing();
    const std::vector<ScenarioResult> results =
        claims ? ssno::exp::runClaims(runner)
               : ssno::serve::runAllCached(runner, scenarios, cache.get());
    if (!tracePath.empty()) {
      ssno::obs::stopTracing();
      if (!ssno::obs::writeTrace(tracePath))
        throw std::runtime_error("cannot write Chrome trace to " + tracePath);
      std::fprintf(stderr, "wrote Chrome trace to %s\n", tracePath.c_str());
    }

    if (!quiet) ssno::exp::printTable(std::cout, results);
    if (!csvPath.empty()) emit(csvPath, ssno::exp::toCsv(results), "CSV");
    if (!jsonPath.empty())
      emit(jsonPath, ssno::exp::toJson(results, /*includeTiming=*/true),
           "JSON");
    if (!metricsPath.empty())
      emit(metricsPath, ssno::obs::Registry::global().renderPrometheus(),
           "metrics");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exp_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
