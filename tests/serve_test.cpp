// The experiment service end to end (serve/scheduler + serve/server):
// in-flight deduplication, cache hits settled inside submit(), cancel →
// checkpoint-resume with a byte-identical final report, the line-
// delimited JSON protocol, socket sessions (a client leaving mid-
// result, descriptors released), and the
// cold-miss/warm-hit determinism proof for the model-check and
// scheduler presets — the served bytes equal what a direct exp_cli run
// produces, even for wall-clock metrics, because both flow through one
// content-addressed cache.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/canon.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "thread_start_failure.hpp"

namespace ssno::serve {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ssno-" + leaf);
  fs::remove_all(dir);
  return dir.string();
}

exp::Scenario dftcRing(int n, const std::string& name = "") {
  exp::Scenario s =
      exp::parseScenario("dftc/central/ring:" + std::to_string(n));
  s.trials = 2;
  if (!name.empty()) s.name = name;
  return s;
}

/// One pipe session: feed `requests`, return the parsed response lines.
std::vector<JsonValue> session(ExpServer& server,
                               const std::vector<std::string>& requests) {
  std::stringstream in, out;
  for (const std::string& r : requests) in << r << "\n";
  server.serveStream(in, out);
  std::vector<JsonValue> lines;
  std::string line;
  while (std::getline(out, line))
    if (!line.empty()) lines.push_back(JsonValue::parse(line));
  return lines;
}

/// An ExpServer on an AF_UNIX socket, accepting on its own thread
/// until destroyed.
class SocketServer {
 public:
  SocketServer(const SchedulerOptions& opt, const std::string& leaf)
      : server_(opt), path_(freshDir(leaf) + "/s.sock") {
    fs::create_directories(fs::path(path_).parent_path());
    const int fd = server_.listenUnix(path_);
    acceptor_ = std::thread([this, fd] { server_.acceptLoop(fd); });
  }
  ~SocketServer() {
    server_.requestShutdown();
    acceptor_.join();
  }
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  ExpServer server_;
  std::string path_;
  std::thread acceptor_;
};

/// One client connection speaking the line protocol.
class LineClient {
 public:
  explicit LineClient(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0)
      ADD_FAILURE() << "connect(" << path << "): " << std::strerror(errno);
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send(const std::string& line) {
    const std::string data = line + "\n";
    ASSERT_EQ(::write(fd_, data.data(), data.size()),
              static_cast<ssize_t>(data.size()));
  }

  /// The next response line, parsed; a null JsonValue at end of stream.
  JsonValue readLine() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return JsonValue::parse(line);
  }

 private:
  int fd_;
  std::string buf_;
};

/// Polls `done` for up to 30 s.
bool eventually(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Reassembles an exp_cli-identical CSV from `result` row lines:
/// header + per-unit rows in submit order.
std::string reassembleCsv(const std::vector<JsonValue>& lines) {
  std::vector<std::pair<std::int64_t, std::string>> rows;
  for (const JsonValue& line : lines)
    if (const JsonValue* csv = line.find("csv"))
      rows.emplace_back(line.find("unit")->asInt(), csv->asString());
  std::sort(rows.begin(), rows.end());
  std::string out = exp::csvHeader() + "\n";
  for (const auto& [unit, csv] : rows) out += csv;
  return out;
}

TEST(Scheduler, DuplicateUnitsShareOneComputation) {
  SchedulerOptions opt;
  opt.workers = 1;
  JobScheduler sched(opt);
  const exp::Scenario a = dftcRing(32);
  const exp::Scenario b = dftcRing(32, "alias for the same work");
  const std::uint64_t job = sched.submit({a, b});
  const auto results = sched.wait(job);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].has_value());
  ASSERT_TRUE(results[1].has_value());
  // One computation, delivered to both units under their own names.
  EXPECT_EQ(exp::resultPayload(*results[0]),
            exp::resultPayload(*results[1]));
  EXPECT_EQ(results[1]->scenario.name, "alias for the same work");
  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.submittedUnits, 2u);
  EXPECT_EQ(st.dedupedUnits, 1u);
  EXPECT_EQ(st.computed, 1u);
}

TEST(Scheduler, ConcurrentIdenticalJobsComputeOnce) {
  SchedulerOptions opt;
  opt.workers = 1;  // the filler unit pins the only worker
  JobScheduler sched(opt);
  const exp::Scenario filler = dftcRing(128);
  const exp::Scenario target = dftcRing(48);
  const std::uint64_t jobA = sched.submit({filler, target});
  const std::uint64_t jobB = sched.submit({dftcRing(48, "second client")});
  const auto resultsA = sched.wait(jobA);
  const auto resultsB = sched.wait(jobB);
  ASSERT_TRUE(resultsA[1].has_value());
  ASSERT_TRUE(resultsB[0].has_value());
  EXPECT_EQ(exp::resultPayload(*resultsA[1]),
            exp::resultPayload(*resultsB[0]));
  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.dedupedUnits, 1u);  // jobB attached to jobA's queued unit
  EXPECT_EQ(st.computed, 2u);      // filler + target, never target twice
}

TEST(Scheduler, CancelledSweepResumesByteIdentical) {
  const std::string dir = freshDir("sched-resume");
  std::vector<exp::Scenario> sweep;
  for (const int n : {24, 32, 40, 48, 56}) sweep.push_back(dftcRing(n));
  const exp::ExperimentRunner runner(1);
  const std::string csvDirect = exp::toCsv(runner.runAll(sweep));

  {
    ResultCache cache(dir + "/cache");
    SchedulerOptions opt;
    opt.workers = 1;
    opt.cache = &cache;
    opt.checkpointDir = dir + "/ckpt";
    JobScheduler sched(opt);
    const std::uint64_t job = sched.submit(sweep, 0, "sweep");
    // Let at least one unit settle (and land in the cache), then kill
    // the sweep mid-flight.
    (void)sched.eventsSince(job, 0);
    EXPECT_TRUE(sched.cancel(job));
    EXPECT_FALSE(sched.status(job).complete);
  }  // scheduler torn down with queued units never run

  ResultCache cache(dir + "/cache");
  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  opt.checkpointDir = dir + "/ckpt";
  JobScheduler sched(opt);
  const std::uint64_t job = sched.resume("sweep");
  const auto results = sched.wait(job);
  ASSERT_EQ(results.size(), sweep.size());
  std::vector<exp::ScenarioResult> flat;
  for (const auto& r : results) {
    ASSERT_TRUE(r.has_value());
    flat.push_back(*r);
  }
  EXPECT_EQ(exp::toCsv(flat), csvDirect);
  // The pre-cancel work was not wasted: it came back from the cache.
  EXPECT_GE(sched.status(job).cachedHits, 1);
}

// Cache hits settle inside submit(): a job whose every unit is cached
// is complete before any worker sees it.
TEST(Scheduler, AllCachedJobIsCompleteWhenSubmitReturns) {
  ResultCache cache(freshDir("sched-all-hits"));
  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  JobScheduler sched(opt);
  const std::vector<exp::Scenario> sweep = {dftcRing(24), dftcRing(32),
                                            dftcRing(24, "same work")};
  (void)sched.wait(sched.submit(sweep));
  const std::uint64_t job = sched.submit(sweep);
  const JobStatus st = sched.status(job);
  EXPECT_TRUE(st.complete);
  EXPECT_EQ(st.done, 3);
  EXPECT_EQ(st.cachedHits, 3);
  bool ended = false;
  const std::vector<RowEvent> rows = sched.eventsSince(job, 0, &ended);
  EXPECT_TRUE(ended);
  ASSERT_EQ(rows.size(), 3u);
  for (const RowEvent& row : rows) EXPECT_TRUE(row.cached);
  EXPECT_EQ(rows[2].result.scenario.name, "same work");
  EXPECT_EQ(sched.stats().computed, 2u);
}

// One job holding a cached unit, a new unit, and a unit another job
// has in flight: submit() looks up the first two, once each, and
// workers look nothing up.
TEST(Scheduler, MixedJobLooksEachUnitNotInFlightUpOnce) {
  ResultCache cache(freshDir("sched-mixed"));
  SchedulerOptions opt;
  opt.workers = 1;  // the filler unit pins the only worker
  opt.cache = &cache;
  JobScheduler sched(opt);
  const exp::Scenario cached = dftcRing(24);
  const exp::Scenario fresh = dftcRing(32);
  const exp::Scenario shared = dftcRing(48);
  (void)sched.wait(sched.submit({cached}));
  const auto lookups = [&cache] {
    const ResultCache::Counters c = cache.counters();
    return c.hits + c.misses;
  };
  const std::uint64_t before = lookups();
  const std::uint64_t jobA = sched.submit({dftcRing(128), shared});
  EXPECT_EQ(lookups(), before + 2);  // two misses, both queued
  const std::uint64_t jobB = sched.submit({cached, fresh, shared});
  EXPECT_EQ(lookups(), before + 4);  // one hit, one miss, one in flight
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(sched.status(jobB).cachedHits, 1);  // settled inside submit()
  const auto resultsB = sched.wait(jobB);
  const auto resultsA = sched.wait(jobA);
  for (const auto& r : resultsB) ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(resultsA[1].has_value());
  EXPECT_EQ(exp::resultPayload(*resultsA[1]),
            exp::resultPayload(*resultsB[2]));
  EXPECT_EQ(lookups(), before + 4);  // the workers only computed
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.dedupedUnits, 1u);
  EXPECT_EQ(stats.computed, 4u);  // cached, filler, shared once, fresh
  EXPECT_EQ(cache.counters().stores, 4u);
}

// A checkpointed job that hits on every unit writes its unit list and
// then one append: every done line and complete, in one write.
TEST(Scheduler, CheckpointedAllHitJobAppendsItsLinesAtOnce) {
  const std::string dir = freshDir("sched-ckpt-hits");
  ResultCache cache(dir + "/cache");
  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  opt.checkpointDir = dir + "/ckpt";
  JobScheduler sched(opt);
  const std::vector<exp::Scenario> sweep = {dftcRing(24), dftcRing(32),
                                            dftcRing(40)};
  (void)sched.wait(sched.submit(sweep));

  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t writes0 = reg.counterValue("io_write_total");
  const std::uint64_t fsyncs0 = reg.counterValue("io_fsync_total");
  const std::uint64_t job = sched.submit(sweep, 0, "hits");
  // The unit list (written, fsynced, renamed, directory fsynced), then
  // one append.
  EXPECT_EQ(reg.counterValue("io_write_total") - writes0, 2u);
  EXPECT_EQ(reg.counterValue("io_fsync_total") - fsyncs0, 3u);
  EXPECT_TRUE(sched.status(job).complete);
  EXPECT_FALSE(sched.cancel(job));

  std::ifstream in(sched.checkpointPath("hits"));
  std::vector<std::string> tail;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("unit\t", 0) != 0 && line.rfind("name ", 0) != 0)
      tail.push_back(line);
  ASSERT_EQ(tail.size(), 5u);  // magic, three done lines, complete
  for (int unit = 0; unit < 3; ++unit)
    EXPECT_EQ(tail[static_cast<std::size_t>(unit) + 1],
              "done " + std::to_string(unit) + " " +
                  cache.keyHex(sweep[static_cast<std::size_t>(unit)]));
  EXPECT_EQ(tail.back(), "complete");
}

TEST(Server, ProtocolHandlesGoodAndBadRequestsInOneSession) {
  SchedulerOptions opt;
  opt.workers = 1;
  ExpServer server(opt);
  const auto lines = session(
      server,
      {"this is not json",
       R"({"noverb":1})",
       R"({"verb":"frobnicate"})",
       R"({"verb":"status","job":999})",
       R"({"verb":"submit","target":"dftc/central/ring:24","trials":2})",
       R"({"verb":"submit","scenarios":["dftc central ring:24 trials=2",)"
       R"("dftc central ring:32 trials=2"],"only":"dftc/central/ring:32"})",
       R"({"verb":"result","job":2})",
       R"({"verb":"status","job":1})",
       R"({"verb":"stats"})"});
  ASSERT_EQ(lines.size(), 10u);  // result emits its row + a summary line
  EXPECT_FALSE(lines[0].find("ok")->asBool());  // parse error
  EXPECT_FALSE(lines[1].find("ok")->asBool());  // missing verb
  EXPECT_FALSE(lines[2].find("ok")->asBool());  // unknown verb
  EXPECT_FALSE(lines[3].find("ok")->asBool());  // unknown job
  EXPECT_TRUE(lines[4].find("ok")->asBool());
  EXPECT_EQ(lines[4].find("job")->asInt(), 1);
  EXPECT_TRUE(lines[5].find("ok")->asBool());
  EXPECT_EQ(lines[5].find("units")->asInt(), 1);  // "only" filtered
  // result: one row + the final summary line.
  EXPECT_EQ(lines[6].find("scenario")->asString(), "dftc/central/ring:32");
  EXPECT_FALSE(lines[6].find("failed")->asBool());
  EXPECT_TRUE(lines[7].find("complete")->asBool());
  EXPECT_TRUE(lines[8].find("ok")->asBool());  // status of job 1
  EXPECT_EQ(lines[9].find("computed")->asInt(), 2);
}

TEST(Server, SubmitRejectsUnknownOnlyNameListingCandidates) {
  SchedulerOptions opt;
  opt.workers = 1;
  ExpServer server(opt);
  const auto lines = session(
      server, {R"({"verb":"submit","target":"dftc/central/ring:24",)"
               R"("only":"typo-name"})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_FALSE(lines[0].find("ok")->asBool());
  const std::string error = lines[0].find("error")->asString();
  EXPECT_NE(error.find("typo-name"), std::string::npos) << error;
  EXPECT_NE(error.find("dftc/central/ring:24"), std::string::npos) << error;
}

TEST(Server, NonPositiveBudgetOverrideIsRejected) {
  SchedulerOptions opt;
  opt.workers = 1;
  ExpServer server(opt);
  const auto lines = session(
      server, {R"({"verb":"submit","target":"dftc/central/ring:5",)"
               R"("budget":0})",
               R"({"verb":"submit","target":"model-check:dftc/central/path:3",)"
               R"("budget":-1})",
               R"({"verb":"submit","target":"dftno-churn/round-robin/ring:8",)"
               R"("rate":-0.5})"});
  ASSERT_EQ(lines.size(), 3u);
  for (const JsonValue& line : lines) EXPECT_FALSE(line.find("ok")->asBool());
  EXPECT_NE(lines[0].find("error")->asString().find(
                "budget must be positive, got 0"),
            std::string::npos)
      << lines[0].find("error")->asString();
  EXPECT_NE(lines[1].find("error")->asString().find(
                "model-check budget must be positive"),
            std::string::npos)
      << lines[1].find("error")->asString();
  EXPECT_NE(lines[2].find("error")->asString().find(
                "fault rate must be in [0, 1], got -0.5"),
            std::string::npos)
      << lines[2].find("error")->asString();
}

TEST(Server, OneNodeTopologyIsRejectedAndTheSessionSurvives) {
  // A one-node graph parses as no topology at all, so the submit fails
  // cleanly instead of aborting a protocol constructor (and the server).
  SchedulerOptions opt;
  opt.workers = 1;
  ExpServer server(opt);
  const auto lines = session(
      server,
      {R"({"verb":"submit","scenarios":["dftno central path:1 trials=1"]})",
       R"({"verb":"submit","target":"dftno/central/path:2","trials":1})",
       R"({"verb":"result","job":1})", R"({"verb":"stats"})"});
  ASSERT_EQ(lines.size(), 5u);  // result emits its row + a summary line
  EXPECT_FALSE(lines[0].find("ok")->asBool());
  EXPECT_NE(lines[0].find("error")->asString().find("path needs n >= 2"),
            std::string::npos)
      << lines[0].find("error")->asString();
  EXPECT_TRUE(lines[1].find("ok")->asBool());
  EXPECT_EQ(lines[2].find("scenario")->asString(), "dftno/central/path:2");
  EXPECT_FALSE(lines[2].find("failed")->asBool());
  EXPECT_TRUE(lines[3].find("complete")->asBool());
  EXPECT_EQ(lines[4].find("computed")->asInt(), 1);
}

TEST(Server, RefusedModelCheckThreadFailsTheUnitAndTheSessionSurvives) {
  // A refused explorer thread used to abort exp_serve through a single
  // submit ("terminate called without an active exception", e.g. on
  // mc-threads=100000).  Now that unit fails with the error, and the
  // next request in the same session is answered.
  SchedulerOptions opt;
  opt.workers = 1;
  ExpServer server(opt);  // its worker thread starts before the refusal
  std::vector<JsonValue> lines;
  {
    const ThreadStartFailure refuse;
    lines = session(
        server,
        {R"({"verb":"submit","scenarios":)"
         R"(["model-check:dftc central path:3 mc-threads=8 trials=1"]})",
         R"({"verb":"result","job":1})",
         R"({"verb":"submit","scenarios":)"
         R"(["model-check:dftc central path:3 mc-threads=1 trials=1"]})",
         R"({"verb":"result","job":2})", R"({"verb":"stats"})"});
  }
  ASSERT_EQ(lines.size(), 7u);  // each result: its row + a summary line
  EXPECT_TRUE(lines[0].find("ok")->asBool());
  EXPECT_TRUE(lines[1].find("failed")->asBool());
  const std::string error = lines[1].find("error")->asString();
  EXPECT_NE(error.find("cannot start worker thread 1 of 8"),
            std::string::npos)
      << error;
  EXPECT_TRUE(lines[2].find("complete")->asBool());
  EXPECT_TRUE(lines[3].find("ok")->asBool());
  EXPECT_EQ(lines[3].find("job")->asInt(), 2);
  EXPECT_FALSE(lines[4].find("failed")->asBool());
  EXPECT_NE(lines[4].find("csv")->asString().find("verdicts_agree"),
            std::string::npos);
  EXPECT_TRUE(lines[5].find("complete")->asBool());
  EXPECT_TRUE(lines[6].find("ok")->asBool());
}

TEST(Server, KilledServerResumesFromCheckpointByteIdentical) {
  const std::string dir = freshDir("srv-resume");
  const std::vector<std::string> sweepLines = {
      "dftc central ring:24 trials=2", "dftc central ring:32 trials=2",
      "dftc central ring:40 trials=2"};
  std::string joined;
  for (const std::string& l : sweepLines) joined += l + "\n";
  std::istringstream sweepStream(joined);
  const exp::ExperimentRunner runner(1);
  const std::string csvDirect =
      exp::toCsv(runner.runAll(exp::loadScenarios(sweepStream)));

  {
    ResultCache cache(dir + "/cache");
    SchedulerOptions opt;
    opt.workers = 1;
    opt.cache = &cache;
    opt.checkpointDir = dir + "/ckpt";
    ExpServer server(opt);
    const auto lines = session(
        server,
        {R"({"verb":"submit","scenarios":["dftc central ring:24 trials=2",)"
         R"("dftc central ring:32 trials=2","dftc central ring:40 )"
         R"(trials=2"],"checkpoint":"sweep"})"});
    ASSERT_TRUE(lines[0].find("ok")->asBool());
  }  // server dies without the client ever reading results

  ResultCache cache(dir + "/cache");
  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  opt.checkpointDir = dir + "/ckpt";
  ExpServer server(opt);
  const auto lines =
      session(server, {R"({"verb":"resume","checkpoint":"sweep"})",
                       R"({"verb":"result","job":1})"});
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(lines[0].find("ok")->asBool());
  EXPECT_EQ(lines[0].find("units")->asInt(), 3);
  EXPECT_TRUE(lines.back().find("complete")->asBool());
  EXPECT_EQ(reassembleCsv(lines), csvDirect);
}

TEST(Server, TruncatedCheckpointTailResumesByteIdentical) {
  // A crash mid-append leaves a final line with no '\n'.  resume()
  // must skip it (counted), keep every intact line, and produce the
  // same final report as an uninterrupted run.
  const std::string dir = freshDir("srv-torn-tail");
  std::istringstream sweepStream(
      "dftc central ring:24 trials=2\ndftc central ring:32 trials=2\n");
  const exp::ExperimentRunner runner(1);
  const std::string csvDirect =
      exp::toCsv(runner.runAll(exp::loadScenarios(sweepStream)));

  {
    ResultCache cache(dir + "/cache");
    SchedulerOptions opt;
    opt.workers = 1;
    opt.cache = &cache;
    opt.checkpointDir = dir + "/ckpt";
    ExpServer server(opt);
    const auto lines = session(
        server,
        {R"({"verb":"submit","scenarios":["dftc central ring:24 trials=2",)"
         R"("dftc central ring:32 trials=2"],"checkpoint":"sweep"})"});
    ASSERT_TRUE(lines[0].find("ok")->asBool());
  }
  // Tear the tail: a half-written "done" line with no newline.
  {
    std::ofstream tear(dir + "/ckpt/sweep.ckpt",
                       std::ios::app | std::ios::binary);
    tear << "done 1 0123456";  // no '\n' — torn mid-append
  }

  const std::uint64_t skippedBefore = obs::Registry::global().counterValue(
      "serve_ckpt_truncated_lines_total");
  ResultCache cache(dir + "/cache");
  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  opt.checkpointDir = dir + "/ckpt";
  ExpServer server(opt);
  const auto lines =
      session(server, {R"({"verb":"resume","checkpoint":"sweep"})",
                       R"({"verb":"result","job":1})"});
  EXPECT_TRUE(lines[0].find("ok")->asBool());
  EXPECT_EQ(lines[0].find("units")->asInt(), 2);
  EXPECT_TRUE(lines.back().find("complete")->asBool());
  EXPECT_EQ(reassembleCsv(lines), csvDirect);
  EXPECT_EQ(obs::Registry::global().counterValue(
                "serve_ckpt_truncated_lines_total"),
            skippedBefore + 1);
}

/// The acceptance proof: a preset scenario computed cold through the
/// cache by the direct path (what `exp_cli --cache-dir` runs), then
/// served warm by the service, is byte-identical — including wall-clock
/// throughput metrics, which only determinism-via-cache can guarantee.
void proveColdWarmIdentity(const std::string& preset, int trials,
                           StepCount budget) {
  const std::string dir = freshDir("e2e-" + preset);
  std::vector<exp::Scenario> sweep = exp::makePreset(preset);
  const std::string only = sweep.front().name;
  sweep = exp::filterOnly(std::move(sweep), only);
  for (exp::Scenario& s : sweep) {
    s.trials = trials;
    if (budget > 0) s.budget = budget;
  }

  ResultCache cache(dir);
  const exp::ExperimentRunner runner(1);
  const std::string csvDirect =
      exp::toCsv(runAllCached(runner, sweep, &cache));
  ASSERT_EQ(cache.counters().stores, 1u);  // cold miss, computed, stored

  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  ExpServer server(opt);
  std::string submit = R"({"verb":"submit","target":")" + preset +
                       R"(","only":")" + only + R"(","trials":)" +
                       std::to_string(trials);
  if (budget > 0) submit += ",\"budget\":" + std::to_string(budget);
  submit += "}";
  const auto lines =
      session(server, {submit, R"({"verb":"result","job":1})"});
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(lines[1].find("cached")->asBool());  // warm hit, no recompute
  EXPECT_EQ(reassembleCsv(lines), csvDirect);
}

TEST(Server, PruneVerbEvictsOldRecordsAndReportsCounts) {
  const std::string dir = freshDir("srv-prune");
  ResultCache cache(dir);
  // Two records with distinct mtimes so the LRU order is fixed.
  exp::Scenario oldRec = dftcRing(24);
  exp::Scenario newRec = dftcRing(32);
  ASSERT_TRUE(cache.store(oldRec, "old payload"));
  ASSERT_TRUE(cache.store(newRec, "new payload"));
  const fs::path oldPath =
      fs::path(dir) / cache.keyHex(oldRec).substr(0, 2) /
      (cache.keyHex(oldRec) + ".rec");
  const fs::path newPath =
      fs::path(dir) / cache.keyHex(newRec).substr(0, 2) /
      (cache.keyHex(newRec) + ".rec");
  fs::last_write_time(oldPath, fs::last_write_time(oldPath) -
                                   std::chrono::seconds(10));
  // A budget that fits the newer record alone must evict only the older.
  const auto budget = fs::file_size(newPath) + 8;

  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  ExpServer server(opt);
  const auto lines = session(
      server, {R"({"verb":"prune"})",                 // missing budget
               R"({"verb":"prune","max_bytes":-5})",  // negative budget
               R"({"verb":"prune","max_bytes":)" + std::to_string(budget) +
                   "}"});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_FALSE(lines[0].find("ok")->asBool());
  EXPECT_FALSE(lines[1].find("ok")->asBool());
  EXPECT_TRUE(lines[2].find("ok")->asBool());
  EXPECT_EQ(lines[2].find("removed")->asInt(), 1);
  EXPECT_EQ(lines[2].find("kept")->asInt(), 1);
  EXPECT_GT(lines[2].find("bytes_removed")->asInt(), 0);
  EXPECT_GT(lines[2].find("bytes_kept")->asInt(), 0);
  EXPECT_FALSE(fs::exists(oldPath));  // the older record was the victim
  EXPECT_TRUE(fs::exists(newPath));
}

/// "name value" lookup in a Prometheus text exposition (exact-name
/// match; skips # comments, _bucket/_sum/_count series unless asked
/// for explicitly).
std::uint64_t promValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0)
      return std::stoull(line.substr(name.size() + 1));
  }
  ADD_FAILURE() << "metric '" << name << "' not in exposition";
  return 0;
}

TEST(Server, MetricsVerbMatchesCacheCountersAndSurvivesBadRequests) {
  const std::string dir = freshDir("srv-metrics");
  ResultCache cache(dir);
  SchedulerOptions opt;
  opt.workers = 1;
  opt.cache = &cache;
  ExpServer server(opt);

  // The process-wide registry accumulates across tests in this binary,
  // so assert on deltas, not absolute values.
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t requests0 = reg.counterValue("serve_requests_total");
  const std::uint64_t hits0 = reg.counterValue("serve_cache_hits_total");
  const std::uint64_t misses0 = reg.counterValue("serve_cache_misses_total");

  const auto lines = session(
      server,
      {R"({"verb":"submit","target":"dftc/central/ring:16","trials":2})",
       R"({"verb":"result","job":1})",  // cold: one miss, one store
       R"({"verb":"submit","target":"dftc/central/ring:16","trials":2})",
       R"({"verb":"result","job":2})",  // warm: one hit
       "definitely not json",           // malformed: ok:false, no crash
       R"({"verb":"metrics"})"});       // still answered after the error
  ASSERT_EQ(lines.size(), 8u);  // 2×(submit+row+summary) + err + metrics
  EXPECT_FALSE(lines[6].find("ok")->asBool());
  const JsonValue& last = lines.back();
  ASSERT_TRUE(last.find("ok")->asBool());
  const std::string text = last.find("metrics")->asString();

  // Parseable exposition with the serve series present and counting.
  EXPECT_NE(text.find("# TYPE serve_requests_total counter"),
            std::string::npos);
  EXPECT_EQ(promValue(text, "serve_requests_total") - requests0, 6u);

  // The cache series must agree exactly with the cache's own counters
  // (they are incremented at the identical sites).
  const ResultCache::Counters c = cache.counters();
  EXPECT_EQ(promValue(text, "serve_cache_hits_total") - hits0, c.hits);
  EXPECT_EQ(promValue(text, "serve_cache_misses_total") - misses0, c.misses);
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.misses, 0u);

  // Per-verb latency histograms exist for the verbs this session used.
  EXPECT_NE(text.find("# TYPE serve_verb_submit_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_verb_metrics_ns histogram"),
            std::string::npos);
}

TEST(Server, PruneWithoutACacheIsAnErrorNotACrash) {
  SchedulerOptions opt;
  opt.workers = 1;
  ExpServer server(opt);  // no cache wired
  const auto lines =
      session(server, {R"({"verb":"prune","max_bytes":1000})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_FALSE(lines[0].find("ok")->asBool());
  const std::string error = lines[0].find("error")->asString();
  EXPECT_NE(error.find("cache"), std::string::npos) << error;
}

// A client that submits, asks for the result and leaves while the job
// runs costs its own session only: the session's write meets EPIPE,
// not SIGPIPE, and the next client is served.
TEST(Server, ClientLeavingMidResultEndsOnlyItsSession) {
  SchedulerOptions opt;
  opt.workers = 1;
  const SocketServer server(opt, "srv-leave");
  {
    LineClient leaver(server.path());
    leaver.send(R"({"verb":"submit","scenarios":[)"
                R"("stno distributed grid:8x8 trials=20",)"
                R"("stno distributed grid:8x6 trials=20"]})");
    const JsonValue ack = leaver.readLine();
    ASSERT_TRUE(ack.find("ok")->asBool());
    ASSERT_EQ(ack.find("job")->asInt(), 1);
    leaver.send(R"({"verb":"result","job":1})");
  }  // gone before the first row is ready
  LineClient next(server.path());
  EXPECT_TRUE(eventually([&next] {
    next.send(R"({"verb":"status","job":1})");
    const JsonValue st = next.readLine();
    return st.find("state") != nullptr &&
           st.find("state")->asString() == "complete";
  }));
  next.send(R"({"verb":"stats"})");
  const JsonValue stats = next.readLine();
  ASSERT_NE(stats.find("ok"), nullptr);
  EXPECT_TRUE(stats.find("ok")->asBool());
  EXPECT_EQ(stats.find("computed")->asInt(), 2);
}

// Every ended session closes its connection and is joined while the
// server runs, so sequential clients do not accumulate descriptors.
TEST(Server, EndedSessionsReleaseTheirDescriptors) {
  SchedulerOptions opt;
  opt.workers = 1;
  const SocketServer server(opt, "srv-fds");
  const auto openFds = [] {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  const std::size_t before = openFds();
  for (int i = 0; i < 50; ++i) {
    LineClient client(server.path());
    client.send(R"({"verb":"stats"})");
    const JsonValue reply = client.readLine();
    ASSERT_NE(reply.find("ok"), nullptr);
    ASSERT_TRUE(reply.find("ok")->asBool());
  }
  std::size_t after = 0;
  EXPECT_TRUE(eventually([&] { return (after = openFds()) <= before; }))
      << before << " descriptors before 50 sessions, " << after << " after";
}

TEST(Server, ModelCheckPresetColdThenWarmIsByteIdentical) {
  proveColdWarmIdentity("model-check", /*trials=*/1, /*budget=*/0);
}

TEST(Server, SchedulerPresetColdThenWarmIsByteIdentical) {
  proveColdWarmIdentity("scheduler", /*trials=*/1, /*budget=*/2000);
}

}  // namespace
}  // namespace ssno::serve
