// Unit tests for the ExperimentRunner: thread-count independence of the
// aggregated statistics, failed-trial accounting, the scenario registry,
// and the report emitters.
#include "exp/runner.hpp"

#include <gtest/gtest.h>
#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "core/graph_algo.hpp"
#include "core/parallel.hpp"
#include "exp/canon.hpp"
#include "exp/claims.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "sptree/dfs_tree.hpp"
#include "thread_start_failure.hpp"

namespace ssno::exp {
namespace {

void expectSameSummary(const Summary& a, const Summary& b,
                       const std::string& what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.stddev, b.stddev) << what;
  EXPECT_EQ(a.p50, b.p50) << what;
  EXPECT_EQ(a.p95, b.p95) << what;
}

void expectSameResult(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.nodeCount, b.nodeCount);
  EXPECT_EQ(a.edgeCount, b.edgeCount);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failedTrials, b.failedTrials);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, summary] : a.metrics) {
    ASSERT_TRUE(b.metrics.count(name)) << name;
    expectSameSummary(summary, b.metrics.at(name), name);
  }
}

TEST(ExperimentRunner, StnoResultsIdenticalAcrossThreadCounts) {
  Scenario s = parseScenario("stno/distributed/ring:12");
  s.trials = 8;
  s.seed = 0xFEED;
  const ScenarioResult one = ExperimentRunner(1).run(s);
  EXPECT_EQ(one.failedTrials, 0);
  EXPECT_EQ(one.metric("tree_moves").count, 8);
  for (int threads : {2, 4, 8}) {
    const ScenarioResult many = ExperimentRunner(threads).run(s);
    expectSameResult(one, many);
  }
}

TEST(ExperimentRunner, DftnoResultsIdenticalAcrossThreadCounts) {
  Scenario s = parseScenario("dftno/round-robin/grid:3x3");
  s.trials = 6;
  s.seed = 0xD15C;
  const ScenarioResult one = ExperimentRunner(1).run(s);
  EXPECT_EQ(one.failedTrials, 0);
  EXPECT_GT(one.metric("overlay_moves").mean, 0);
  expectSameResult(one, ExperimentRunner(5).run(s));
}

TEST(ExperimentRunner, TrialSeedsAreDecorrelatedAndThreadFree) {
  std::set<std::uint64_t> seeds;
  for (int t = 0; t < 100; ++t) seeds.insert(trialSeed(7, t));
  EXPECT_EQ(seeds.size(), 100u);  // no collisions among sibling trials
  EXPECT_EQ(trialSeed(7, 3), trialSeed(7, 3));
  EXPECT_NE(trialSeed(7, 3), trialSeed(8, 3));
}

TEST(ExperimentRunner, ExhaustedBudgetCountsFailedTrials) {
  Scenario s = parseScenario("stno/distributed/ring:12");
  s.trials = 4;
  s.budget = 3;  // far below any stabilization cost
  const ScenarioResult r = ExperimentRunner(2).run(s);
  EXPECT_EQ(r.failedTrials, 4);
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_EQ(r.metric("tree_moves").count, 0);
}

TEST(ExperimentRunner, RunOnGraphUsesProvidedGraph) {
  Scenario s;
  s.protocol = ProtocolKind::kStnoFixedTree;
  s.daemon = DaemonKind::kSynchronous;
  s.trials = 3;
  const Graph g = Graph::lollipop(4, 3);
  const ScenarioResult r = ExperimentRunner(1).runOnGraph(s, g);
  EXPECT_EQ(r.nodeCount, g.nodeCount());
  EXPECT_EQ(r.edgeCount, g.edgeCount());
  EXPECT_EQ(r.failedTrials, 0);
  EXPECT_EQ(r.metric("overlay_rounds").count, 3);
}

TEST(ExperimentRunner, ChurnReportsAvailability) {
  Scenario s = parseScenario("dftno-churn/round-robin/grid:3x3");
  s.trials = 2;
  s.budget = 2'000;  // churn horizon
  s.faultRate = 0.002;
  const ScenarioResult r = ExperimentRunner(2).run(s);
  EXPECT_EQ(r.failedTrials, 0);
  const Summary avail = r.metric("availability");
  EXPECT_EQ(avail.count, 2);
  EXPECT_GE(avail.min, 0.0);
  EXPECT_LE(avail.max, 1.0);
  expectSameResult(r, ExperimentRunner(1).run(s));
}

TEST(ExperimentRunner, RejectsNonPositiveTrials) {
  Scenario s = parseScenario("stno/distributed/ring:12");
  s.trials = 0;
  EXPECT_THROW((void)ExperimentRunner(1).run(s), std::invalid_argument);
}

/// A std::thread stand-in whose failAt-th construction throws, as the
/// std::thread constructor does when the system refuses a thread.
struct FlakyThread {
  static inline int started = 0;
  static inline int failAt = 0;
  std::thread thread;

  template <class Body>
  explicit FlakyThread(Body&& body) {
    if (++started == failAt)
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again));
    thread = std::thread(std::forward<Body>(body));
  }
  void join() { thread.join(); }
};

TEST(RunWorkers, FailedThreadStartJoinsTheStartedThreadsAndRethrows) {
  FlakyThread::started = 0;
  FlakyThread::failAt = 3;
  std::atomic<int> ran{0};
  try {
    runWorkers<FlakyThread>(4, [&](int) { ++ran; });
    FAIL() << "expected the failed start to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot start worker thread 3 of 4"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ran.load(), 2);  // both started workers ran to completion
}

TEST(RunWorkers, BodyExceptionIsRethrownAfterEveryWorkerFinished) {
  std::atomic<int> ran{0};
  EXPECT_THROW(runWorkers(4,
                          [&](int t) {
                            ++ran;
                            if (t == 1) throw std::logic_error("worker 1");
                          }),
               std::logic_error);
  EXPECT_EQ(ran.load(), 4);
}

#if defined(__linux__)
TEST(UsableCores, FollowTheCallingThreadsAffinity) {
  // A thread that narrows its own affinity to one CPU sees one usable
  // core; the other threads keep theirs.
  const int all = usableCores();
  EXPECT_GE(all, 1);
  int narrowed = 0;
  std::thread([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    int first = 0;
    while (!CPU_ISSET(first, &set)) ++first;
    CPU_ZERO(&set);
    CPU_SET(first, &set);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof set, &set), 0);
    narrowed = usableCores();
  }).join();
  EXPECT_EQ(narrowed, 1);
  EXPECT_EQ(usableCores(), all);
}
#endif

TEST(ExperimentRunner, ModelCheckThreadStartFailureFailsTheRunWithAMessage) {
  // A refused worker thread used to abort the process ("terminate called
  // without an active exception", e.g. on mc-threads=100000): the
  // explorer let the exception escape while started workers were still
  // joinable.  Now the run fails with a message and the next one works.
  std::istringstream in(
      "model-check:dftc central path:3 mc-threads=8 trials=1\n");
  Scenario s = loadScenarios(in).at(0);
  {
    const ThreadStartFailure refuse;
    try {
      (void)ExperimentRunner(1).run(s);
      FAIL() << "expected the refused thread to fail the run";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(
          std::string(e.what()).find("cannot start worker thread 1 of 8"),
          std::string::npos)
          << e.what();
    }
  }
  s.mcThreads = 2;
  const ScenarioResult r = ExperimentRunner(2).run(s);
  EXPECT_EQ(r.failedTrials, 0);
  EXPECT_EQ(r.metric("verdicts_agree").mean, 1.0);
}

TEST(ExperimentRunner, ModelCheckBudgetIsAPositiveStateCapOfAnySize) {
  Scenario s = parseScenario("model-check:dftc-fault/central/ring:4");
  s.trials = 1;
  s.mcThreads = 1;
  const double states = ExperimentRunner(1).run(s).metric("states").mean;
  // 2^62 used to wrap the store's sizing (capacity * 4) to 2 chunks per
  // shard; -1 to an unallocatable one.
  for (const StepCount huge : {StepCount{1} << 62,
                               std::numeric_limits<StepCount>::max()}) {
    s.budget = huge;
    const ScenarioResult r = ExperimentRunner(1).run(s);
    EXPECT_EQ(r.failedTrials, 0) << huge;
    EXPECT_EQ(r.metric("states").mean, states) << huge;
  }
  for (const StepCount bad : {StepCount{0}, StepCount{-1}}) {
    s.budget = bad;  // as a --budget or served override would set it
    try {
      (void)ExperimentRunner(1).run(s);
      FAIL() << "expected budget " << bad << " to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("budget must be positive"),
                std::string::npos)
          << e.what();
    }
  }
}

// A trial whose mc-threads resolves to 1 runs one check and reuses it as
// the 1-thread reference: one check's worth of BFS levels, not two.
TEST(ExperimentRunner, ModelCheckAtOneThreadChecksOnce) {
  Scenario s = parseScenario("model-check:dftc-fault/central/ring:4");
  s.trials = 1;
  const obs::Registry& reg = obs::Registry::global();
  const auto run = [&](int mcThreads, std::uint64_t& levels) {
    s.mcThreads = mcThreads;
    const std::uint64_t before = reg.counterValue("mc_levels_total");
    const ScenarioResult r = ExperimentRunner(1).run(s);
    levels = reg.counterValue("mc_levels_total") - before;
    EXPECT_EQ(r.failedTrials, 0) << mcThreads;
    EXPECT_EQ(r.metric("verdicts_agree").mean, 1.0) << mcThreads;
    return r;
  };
  std::uint64_t once = 0, twice = 0;
  const ScenarioResult one = run(1, once);
  const ScenarioResult two = run(2, twice);
  EXPECT_GT(once, 1u);  // a reachable check: several BFS levels
  EXPECT_EQ(twice, 2 * once);  // 1 and 2 threads explore the same levels
  EXPECT_EQ(one.metric("speedup").mean, 1.0);
  EXPECT_EQ(one.metric("states").mean, two.metric("states").mean);
}

TEST(ExperimentRunner, ModelCheckBeyondTheLogFailsFast) {
  // ring:6 has 1.16e10 DFTC configurations: within the budget, but beyond
  // the transition log's 32-bit ids.  The trial fails at once instead of
  // seeding the space until memory runs out.
  std::istringstream in(
      "model-check:dftc central ring:6 budget=4611686018427387904 trials=1 "
      "mc-threads=1\n");
  const ScenarioResult r = ExperimentRunner(1).run(loadScenarios(in).at(0));
  EXPECT_EQ(r.trials, 1);
  EXPECT_EQ(r.failedTrials, 1);
}

TEST(ScenarioRegistry, ParsesTriples) {
  const Scenario s = parseScenario("dftno/round-robin/chordring:16:2,5");
  EXPECT_EQ(s.protocol, ProtocolKind::kDftno);
  EXPECT_EQ(s.daemon, DaemonKind::kRoundRobin);
  EXPECT_EQ(s.topology.family, TopologyFamily::kChordalRing);
  EXPECT_EQ(s.topology.build().nodeCount(), 16);
}

TEST(ScenarioRegistry, ChurnTriplesDefaultToStepHorizon) {
  EXPECT_EQ(parseScenario("dftno-churn/round-robin/grid:3x3").budget,
            kDefaultChurnHorizon);
  EXPECT_EQ(parseScenario("baseline-churn/central/ring:8").budget,
            kDefaultChurnHorizon);
  EXPECT_EQ(parseScenario("stno/central/ring:8").budget, Scenario{}.budget);
}

TEST(ScenarioRegistry, RejectsMalformedNames) {
  EXPECT_THROW(parseScenario("stno"), std::invalid_argument);
  EXPECT_THROW(parseScenario("stno/distributed"), std::invalid_argument);
  EXPECT_THROW(parseScenario("nope/central/ring:8"), std::invalid_argument);
  EXPECT_THROW(parseScenario("stno/nope/ring:8"), std::invalid_argument);
  EXPECT_THROW(parseScenario("stno/central/ring:two"),
               std::invalid_argument);
}

// The retired guard-kernel trial kind is an unknown kind everywhere a
// kind is named — a scenario name (a serve request's "target"), a
// scenario-file line (a serve request's "scenarios") and a canonical
// scenario (a cache record) — and fails with the error that lists the
// valid kinds.
TEST(ScenarioRegistry, RetiredGuardKernelKindIsAnUnknownKind) {
  const auto expectUnknownKind = [](const std::function<void()>& parse) {
    try {
      parse();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown protocol 'guard-kernel'; valid kinds:"),
                std::string::npos)
          << what;
      for (const ProtocolKind kind :
           {ProtocolKind::kDftno, ProtocolKind::kStno,
            ProtocolKind::kScheduler, ProtocolKind::kModelCheck,
            ProtocolKind::kObsOverhead})
        EXPECT_NE(what.find(" " + protocolKindName(kind)), std::string::npos)
            << what;
    }
  };
  expectUnknownKind([] { (void)parseScenario("guard-kernel/central/ring:8"); });
  expectUnknownKind(
      [] { (void)resolve("guard-kernel/central/ring:100000"); });
  expectUnknownKind([] {
    std::istringstream in(
        "guard-kernel central ring:100000 trials=1 seed=7 budget=1000000\n");
    (void)loadScenarios(in);
  });
  std::string canonical =
      canonicalScenario(parseScenario("dftno/central/ring:8"));
  const std::string from = "protocol=dftno";
  const auto at = canonical.find(from);
  ASSERT_NE(at, std::string::npos) << canonical;
  canonical.replace(at, from.size(), "protocol=guard-kernel");
  expectUnknownKind([&canonical] { (void)parseCanonicalScenario(canonical); });
}

TEST(ScenarioRegistry, ParsesModelCheckTargets) {
  const Scenario s = parseScenario("model-check:dftc/central/path:3");
  EXPECT_EQ(s.protocol, ProtocolKind::kModelCheck);
  EXPECT_EQ(s.mcTarget, McTarget::kDftc);
  const Scenario f = parseScenario("model-check:dftc-fault/central/ring:8");
  EXPECT_EQ(f.mcTarget, McTarget::kDftcFault);
  EXPECT_THROW(parseScenario("model-check:nope/central/path:3"),
               std::invalid_argument);
  EXPECT_THROW(parseScenario("dftno:dftc/central/path:3"),
               std::invalid_argument);
}

TEST(ScenarioFile, ParsesLinesCommentsAndOverrides) {
  std::istringstream in(
      "# a comment line\n"
      "\n"
      "dftno round-robin ring:16 trials=5 seed=7 budget=1000\n"
      "dftno-churn round-robin grid:3x4 rate=0.002\n"
      "dftno-recovery central grid:3x3 k=4\n"
      "model-check:dftc central path:3 mc-threads=2\n");
  const std::vector<Scenario> scenarios = loadScenarios(in);
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].name, "dftno/round-robin/ring:16");
  EXPECT_EQ(scenarios[0].trials, 5);
  EXPECT_EQ(scenarios[0].seed, 7u);
  EXPECT_EQ(scenarios[0].budget, 1000);
  EXPECT_EQ(scenarios[1].faultRate, 0.002);
  EXPECT_EQ(scenarios[1].budget, kDefaultChurnHorizon);
  EXPECT_EQ(scenarios[2].faultK, 4);
  EXPECT_EQ(scenarios[3].protocol, ProtocolKind::kModelCheck);
  EXPECT_EQ(scenarios[3].mcThreads, 2);
}

TEST(ScenarioFile, RejectsMalformedLinesWithLineNumbers) {
  auto expectThrowWith = [](const char* text, const char* needle) {
    std::istringstream in(text);
    try {
      (void)loadScenarios(in);
      FAIL() << "expected invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expectThrowWith("dftno round-robin\n", "line 1");
  expectThrowWith("# ok\nnope central ring:8\n", "line 2");
  expectThrowWith("dftno central ring:8 trials\n", "key=value");
  expectThrowWith("dftno central ring:8 bogus=3\n", "unknown key");
  expectThrowWith("dftno central ring:8 trials=x\n", "bad value");
  expectThrowWith("dftno central ring:8 budget=1e6\n", "trailing junk");
  expectThrowWith("dftno central ring:8 trials=3x\n", "trailing junk");
  expectThrowWith("dftno central ring:8 trials=0\n", "positive");
  expectThrowWith("model-check:dftc central path:3 mc-threads=-3\n",
                  "mc-threads must be >= 0");
  expectThrowWith("dftno central ring:8 mc-threads=-1\n",
                  "mc-threads must be >= 0");
  expectThrowWith("model-check:dftc central path:3 budget=0\n",
                  "budget must be positive");
  expectThrowWith("# ok\nmodel-check:dftc central path:3 budget=-1\n",
                  "line 2: model-check budget must be positive");
  // Every kind's budget, not only a model check's.
  expectThrowWith("dftno central ring:8 budget=0\n",
                  "line 1: budget must be positive, got 0");
  expectThrowWith("dftno-churn round-robin grid:3x4 budget=-40000\n",
                  "line 1: budget must be positive, got -40000");
  expectThrowWith("# ok\ndftno-churn round-robin ring:8 rate=1.5\n",
                  "line 2: fault rate must be in [0, 1], got 1.5");
}

TEST(ScenarioFile, McThreadsZeroMeansTheUsableCores) {
  std::istringstream in("model-check:dftc central path:3 mc-threads=0\n");
  const std::vector<Scenario> scenarios = loadScenarios(in);
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].mcThreads, 0);
}

TEST(CanonicalScenario, RejectsNegativeMcThreadsAndNonPositiveBudgets) {
  Scenario s = parseScenario("model-check:dftc/central/path:3");
  s.mcThreads = 0;
  EXPECT_EQ(parseCanonicalScenario(canonicalScenario(s)).mcThreads, 0);
  auto expectRejected = [](const Scenario& bad, const char* needle) {
    try {
      (void)parseCanonicalScenario(canonicalScenario(bad));
      FAIL() << "expected rejection: " << canonicalScenario(bad);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  s.mcThreads = -3;
  expectRejected(s, "mc-threads must be >= 0");
  s.mcThreads = 2;
  s.budget = -1;
  expectRejected(s, "budget must be positive");
  Scenario sim = parseScenario("dftno/central/ring:8");
  sim.budget = 0;
  expectRejected(sim, "budget must be positive, got 0");
  Scenario churn = parseScenario("dftno-churn/round-robin/ring:8");
  churn.faultRate = std::numeric_limits<double>::quiet_NaN();
  expectRejected(churn, "fault rate must be in [0, 1], got nan");
}

TEST(ScenarioRegistry, NewGeneratorsUsableFromSimulationAndModelCheck) {
  // dreg/plaw topologies drive both a simulation trial and a
  // model-check trial through the same TopologySpec grammar.
  Scenario sim = parseScenario("dftc/round-robin/dreg:8:3:5");
  sim.trials = 1;
  const ScenarioResult simRes = ExperimentRunner(1).run(sim);
  EXPECT_EQ(simRes.nodeCount, 8);
  EXPECT_EQ(simRes.failedTrials, 0);

  Scenario check = parseScenario("model-check:dftc/central/plaw:4:1:3");
  check.trials = 1;
  check.mcThreads = 2;
  const ScenarioResult checkRes = ExperimentRunner(1).run(check);
  EXPECT_EQ(checkRes.failedTrials, 0);
  EXPECT_EQ(checkRes.metric("verdicts_agree").mean, 1.0);
}

TEST(ScenarioRegistry, PresetsResolveAndAreNonEmpty) {
  for (const std::string& name : presetNames()) {
    const std::vector<Scenario> scenarios = resolve(name);
    EXPECT_FALSE(scenarios.empty()) << name;
    for (const Scenario& s : scenarios) EXPECT_GT(s.trials, 0) << name;
  }
  EXPECT_EQ(resolve("stno/central/ring:8").size(), 1u);
}

TEST(Report, CsvAndJsonCarryFailureCounts) {
  Scenario s = parseScenario("stno/synchronous/path:6");
  s.trials = 3;
  s.seed = 5;
  Scenario failing = s;
  failing.name = "stno/synchronous/path:6#tiny-budget";
  failing.budget = 2;
  const std::vector<ScenarioResult> results =
      ExperimentRunner(2).runAll({s, failing});

  const std::string csv = toCsv(results);
  EXPECT_NE(csv.find(csvHeader()), std::string::npos);
  EXPECT_NE(csv.find("tree_moves"), std::string::npos);
  // The failing scenario emits a row with failed_trials == trials.
  EXPECT_NE(csv.find("#tiny-budget,stno,synchronous,path:6,6,5,3,3"),
            std::string::npos);

  const std::string json = toJson(results);
  EXPECT_NE(json.find("\"failed_trials\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"failed_trials\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"overlay_rounds\""), std::string::npos);
}

TEST(Report, CsvQuotesFieldsContainingCommas) {
  Scenario s = parseScenario("dftno/central/chordring:12:2,4");
  s.trials = 1;
  s.budget = 10;  // converges or not — only the row shape matters here
  const std::string csv = toCsv(ExperimentRunner(1).runAll({s}));
  EXPECT_NE(csv.find("\"dftno/central/chordring:12:2,4\""),
            std::string::npos);
  EXPECT_NE(csv.find("\"chordring:12:2,4\""), std::string::npos);
  // Every data row must have exactly as many (unquoted) commas as the
  // header.
  const auto columns = [](const std::string& line) {
    int cols = 1;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++cols;
    }
    return cols;
  };
  std::istringstream lines(csv);
  std::string header, row;
  std::getline(lines, header);
  while (std::getline(lines, row))
    EXPECT_EQ(columns(row), columns(header)) << row;
}

TEST(Report, JsonIsDeterministic) {
  Scenario s = parseScenario("stno-fixed-tree/synchronous/star:8");
  s.trials = 4;
  const std::vector<ScenarioResult> a = ExperimentRunner(1).runAll({s});
  const std::vector<ScenarioResult> b = ExperimentRunner(3).runAll({s});
  EXPECT_EQ(toJson(a), toJson(b));
  EXPECT_EQ(toCsv(a), toCsv(b));
}

/// The claims run at one runner thread, shared by the tests below.
const std::vector<ScenarioResult>& claimsAtOneThread() {
  static const std::vector<ScenarioResult> rows =
      runClaims(ExperimentRunner(1));
  return rows;
}

const ScenarioResult& rowNamed(const std::vector<ScenarioResult>& rows,
                               const std::string& name) {
  for (const ScenarioResult& r : rows)
    if (r.scenario.name == name) return r;
  throw std::out_of_range("no row named " + name);
}

TEST(Claims, RowsIdenticalAtOneAndFourRunnerThreads) {
  EXPECT_EQ(toJson(claimsAtOneThread()),
            toJson(runClaims(ExperimentRunner(4))));
}

TEST(Claims, EachFitRowIsFitLinearOverItsPresetRows) {
  const std::vector<ScenarioResult>& claims = claimsAtOneThread();
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      series;  // fit row name -> (x, y)
  const auto add = [&series](const std::string& fit, double x, double y) {
    series[fit].first.push_back(x);
    series[fit].second.push_back(y);
  };
  for (const Scenario& s : makePreset("dftno-scaling")) {
    const std::string topology = s.topology.name();
    const ScenarioResult& r = rowNamed(claims, s.name);
    add("fit/dftno-scaling/" + topology.substr(0, topology.find(':')),
        r.nodeCount, r.metric("overlay_moves").mean);
  }
  for (const Scenario& s : makePreset("stno-height")) {
    const Graph g = s.topology.build();
    add("fit/stno-height/stno", treeHeight(g, portOrderDfsTree(g)),
        rowNamed(claims, s.name).metric("overlay_rounds").mean);
  }
  EXPECT_EQ(series["fit/stno-height/stno"].first,
            (std::vector<double>{1, 3, 5, 13, 39}));
  for (const Scenario& s : makePreset("stno-star-control")) {
    const ScenarioResult& r = rowNamed(claims, s.name);
    add("fit/stno-star-control/star", r.nodeCount,
        r.metric("overlay_rounds").mean);
  }
  for (const Scenario& s : makePreset("space")) {
    const ScenarioResult& r = rowNamed(claims, s.name);
    const double x = r.metric("max_degree").mean * std::log2(r.nodeCount);
    add("fit/space/dftno", x, r.metric("dftno_orientation_bits").mean);
    add("fit/space/stno", x, r.metric("stno_orientation_bits").mean);
  }

  EXPECT_EQ(std::count_if(claims.begin(), claims.end(),
                          [](const ScenarioResult& r) {
                            return r.scenario.name.starts_with("fit/");
                          }),
            9);
  ASSERT_EQ(series.size(), 9u);
  for (const auto& [name, xy] : series) {
    const LinearFit want = fitLinear(xy.first, xy.second);
    const ScenarioResult& got = rowNamed(claims, name);
    EXPECT_EQ(got.metric("slope").mean, want.slope) << name;
    EXPECT_EQ(got.metric("abs_slope").mean, std::abs(want.slope)) << name;
    EXPECT_EQ(got.metric("intercept").mean, want.intercept) << name;
    EXPECT_EQ(got.metric("r2").mean, want.r2) << name;
    EXPECT_EQ(got.metric("points").mean,
              static_cast<double>(xy.first.size()))
        << name;
    EXPECT_EQ(got.failedTrials, 0) << name;
  }
}

}  // namespace
}  // namespace ssno::exp
