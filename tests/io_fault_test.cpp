// Deterministic I/O fault injection (io/fault.hpp + io/file.hpp): the
// schedule grammar must parse and fire reproducibly, the File wrappers
// must apply each fault's exact semantics, and — the point of the whole
// layer — every durable-state writer must recover from an injected
// crash at EVERY fault site: cache anomalies are counted misses, spill
// corruption is a named error, nothing ever throws from a read path.
//
// Crash sweeps fork a child per site (CrashPointRunner); this test
// binary is single-threaded, so fork is safe.  Only single-threaded
// workloads (cache store, spill) run in forked children; scheduler
// crash coverage lives in tools/chaos_smoke.py, which crashes whole
// exp_serve processes instead.
#include "io/fault.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "io/file.hpp"
#include "mc/spill.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"

namespace ssno::io {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ssno-io-" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Installs nothing on construction, clears any schedule on scope exit
/// so one test's faults never leak into the next.
struct ScheduleGuard {
  ~ScheduleGuard() { clearFaultSchedule(); }
};

// ---------------------------------------------------------------------------
// Grammar

TEST(FaultSchedule, ParsesTheReadmeExampleAndRoundTrips) {
  const auto sched = FaultSchedule::parse(
      "enospc@write:7; torn@rename:2; crash@fsync:3");
  EXPECT_FALSE(sched.empty());
  const std::string rendered = sched.render();
  EXPECT_EQ(rendered, "enospc@write:7; torn@rename:2; crash@fsync:3");
  // render() output is itself a valid schedule.
  EXPECT_EQ(FaultSchedule::parse(rendered).render(), rendered);
}

TEST(FaultSchedule, RejectsBadDirectivesWithTheirIndex) {
  const auto wantThrow = [](const char* spec, const char* needle) {
    try {
      FaultSchedule::parse(spec);
      FAIL() << "parse accepted: " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << spec << " -> " << e.what();
    }
  };
  wantThrow("eperm@write:1", "directive 1");
  wantThrow("enospc@write:1; torn@chmod:1", "directive 2");
  wantThrow("enospc@write:0", "positive");
  wantThrow("enospc@write:p=1.5", "[0, 1]");
  wantThrow("enospc@write:2:p=0.5", "not both");
  wantThrow("enospc", "needs p=");
  wantThrow("enospc@write:path=", "empty path=");
}

TEST(FaultSchedule, NthCountsOnlyMatchingCallsAndFiresOnce) {
  auto sched = FaultSchedule::parse("eio@write:3");
  EXPECT_EQ(sched.decide(Op::kFsync, "x").fault, Fault::kNone);
  EXPECT_EQ(sched.decide(Op::kWrite, "x").fault, Fault::kNone);
  EXPECT_EQ(sched.decide(Op::kWrite, "x").fault, Fault::kNone);
  EXPECT_EQ(sched.decide(Op::kWrite, "x").fault, Fault::kEio);  // 3rd write
  EXPECT_EQ(sched.decide(Op::kWrite, "x").fault, Fault::kNone);  // one-shot
}

TEST(FaultSchedule, PathFilterRestrictsMatching) {
  auto sched = FaultSchedule::parse("enospc@write:path=.rec");
  EXPECT_EQ(sched.decide(Op::kWrite, "/tmp/ckpt/sweep.ckpt").fault,
            Fault::kNone);
  EXPECT_EQ(sched.decide(Op::kWrite, "/tmp/cache/ab/abc.rec.tmp.1").fault,
            Fault::kEnospc);
}

TEST(FaultSchedule, SeededProbabilisticDrawsAreDeterministic) {
  const auto run = [] {
    auto sched = FaultSchedule::parse("eio:p=0.3; seed=42");
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i)
      fired.push_back(sched.decide(Op::kWrite, "x").fault != Fault::kNone);
    return fired;
  };
  const auto a = run(), b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

// ---------------------------------------------------------------------------
// File wrapper semantics

TEST(IoFile, ShortAndEintrFaultsAreAbsorbedByTheRetryLoop) {
  ScheduleGuard guard;
  const std::string dir = freshDir("retry");
  const std::string path = dir + "/f";
  installFaultSchedule(FaultSchedule::parse("short@write:1; eintr@write:2"));
  File f = File::createTrunc(path);
  ASSERT_TRUE(f.valid());
  const std::string data(1000, 'x');
  EXPECT_TRUE(f.writeAll(data));
  EXPECT_TRUE(f.sync());
  EXPECT_TRUE(f.close());
  EXPECT_EQ(fs::file_size(path), data.size());
}

TEST(IoFile, EnospcFailsTheWriteWithErrno) {
  ScheduleGuard guard;
  const std::string dir = freshDir("enospc");
  installFaultSchedule(FaultSchedule::parse("enospc@write:1"));
  File f = File::createTrunc(dir + "/f");
  ASSERT_TRUE(f.valid());
  EXPECT_FALSE(f.writeAll("payload"));
  EXPECT_EQ(f.errnoValue(), ENOSPC);
}

TEST(IoFile, TornWriteLeavesHalfTheBytes) {
  ScheduleGuard guard;
  const std::string dir = freshDir("torn");
  const std::string path = dir + "/f";
  installFaultSchedule(FaultSchedule::parse("torn@write:1"));
  File f = File::createTrunc(path);
  ASSERT_TRUE(f.valid());
  const std::string data(100, 'y');
  EXPECT_FALSE(f.writeAll(data));
  f.close();
  EXPECT_EQ(fs::file_size(path), data.size() / 2);
}

TEST(IoFile, WriteFileDurableCleansUpItsTempOnFailure) {
  ScheduleGuard guard;
  const std::string dir = freshDir("durable");
  const std::string path = dir + "/out";
  installFaultSchedule(FaultSchedule::parse("enospc@fsync:1"));
  EXPECT_FALSE(writeFileDurable(path, ".tmp", "body"));
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  clearFaultSchedule();
  EXPECT_TRUE(writeFileDurable(path, ".tmp", "body"));
  std::ifstream in(path);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "body");
}

// ---------------------------------------------------------------------------
// Cache invariants under injected faults

exp::Scenario smallScenario() {
  exp::Scenario s = exp::parseScenario("dftc/central/ring:16");
  s.trials = 2;
  return s;
}

TEST(CacheFaults, EnospcStoreIsACountedFailureAndRaisesDegraded) {
  ScheduleGuard guard;
  serve::ResultCache cache(freshDir("cache-enospc"));
  const exp::Scenario s = smallScenario();
  installFaultSchedule(FaultSchedule::parse("enospc@write:path=.rec"));
  const auto degraded = [] {
    return obs::Registry::global().gauge("serve_degraded").value();
  };
  EXPECT_FALSE(cache.store(s, "payload"));
  EXPECT_EQ(cache.counters().storeFailures, 1u);
  EXPECT_EQ(degraded(), 1);
  clearFaultSchedule();
  EXPECT_TRUE(cache.store(s, "payload"));  // disk "recovers"
  EXPECT_EQ(degraded(), 0);
  EXPECT_EQ(cache.fetch(s).value(), "payload");
}

TEST(CacheFaults, TornRenameReadsAsACountedMissNeverAThrow) {
  ScheduleGuard guard;
  serve::ResultCache cache(freshDir("cache-torn"));
  const exp::Scenario s = smallScenario();
  installFaultSchedule(FaultSchedule::parse("torn@rename:1"));
  // The store itself "succeeds" — torn@rename models data blocks lost
  // AFTER the rename was committed, which no writer can observe.
  EXPECT_TRUE(cache.store(s, std::string(64, 'p')));
  clearFaultSchedule();
  EXPECT_FALSE(cache.fetch(s).has_value());
  EXPECT_EQ(cache.counters().badRecords, 1u);
}

// ---------------------------------------------------------------------------
// CrashPointRunner: fork, crash at one site, assert recovery invariants

/// Runs `work` in a forked child under `spec`; returns the child's exit
/// code (io::kCrashExitCode when the injected crash fired, 0 when the
/// workload outlived the schedule).
int crashChild(const std::string& spec, const std::function<void()>& work) {
  fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    installFaultSchedule(FaultSchedule::parse(spec));
    work();
    std::_Exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CrashPointRunner, CacheStoreSurvivesACrashAtEveryFaultSite) {
  // One store() issues: mkdir(subdir), open(temp), write(record),
  // fsync(file), close(file), rename, fsync(parent dir).  The dir fd's
  // open/close inside atomicReplace are raw (not fault sites).
  const struct { const char* op; int calls; } kSites[] = {
      {"mkdir", 1}, {"open", 1}, {"write", 1},
      {"fsync", 2}, {"rename", 1}, {"close", 1},
  };
  const exp::Scenario s = smallScenario();
  const std::string payload(128, 'z');
  for (const auto& site : kSites) {
    for (int n = 1; n <= site.calls; ++n) {
      const std::string dir =
          freshDir(std::string("crash-") + site.op + std::to_string(n));
      const std::string spec =
          std::string("crash@") + site.op + ":" + std::to_string(n);
      const int code = crashChild(spec, [&] {
        serve::ResultCache cache(dir);
        cache.store(s, payload);
      });
      EXPECT_EQ(code, kCrashExitCode) << spec << " did not crash";
      // Recovery: a fresh cache over the same dir must answer with the
      // exact payload or a (possibly counted) miss — never a throw.
      serve::ResultCache after(dir);
      const auto got = after.fetch(s);
      if (got) {
        EXPECT_EQ(*got, payload) << spec;
      }
      // The record path holds no torn garbage a reader would trust:
      // either a complete record (hit above) or nothing readable.
      const auto c = after.counters();
      EXPECT_EQ(c.hits + c.misses, 1u) << spec;
    }
  }
}

TEST(CrashPointRunner, SpillWorkloadRestartsCleanlyAfterAnyWriteCrash) {
  const std::uint64_t kIds = 300, kCap = 100;
  const auto workload = [&](const std::string& dir) {
    mc::FrontierSpill spill(kCap, dir);
    std::vector<std::uint64_t> ids(kIds);
    for (std::uint64_t i = 0; i < kIds; ++i) ids[i] = i * 7 + 1;
    // Batched appends so the capacity trips three times (3 runs, each
    // a header write + a payload write = write sites 1..6).
    for (std::uint64_t at = 0; at < kIds; at += 50)
      spill.append(ids.data() + at, 50);
    std::vector<std::uint64_t> out, chunk;
    while (spill.drainChunk(chunk, 64))
      out.insert(out.end(), chunk.begin(), chunk.end());
    if (out.size() != kIds) std::_Exit(9);  // silent loss — must not happen
  };
  // 3 flushes x (header write + payload write) = write sites 1..6.
  for (int n = 1; n <= 6; ++n) {
    const std::string dir = freshDir("spill-crash-" + std::to_string(n));
    const std::string spec = "crash@write:" + std::to_string(n);
    EXPECT_EQ(crashChild(spec, [&] { workload(dir); }), kCrashExitCode)
        << spec;
    // Restart: the crashed run's orphan files must not disturb a fresh
    // run in the same directory (prefixes are unique per object).
    workload(dir);
  }
}

// ---------------------------------------------------------------------------
// Spill run integrity: corruption is a NAMED error, never silent loss

TEST(SpillIntegrity, CorruptedRunFailsDrainWithANamedError) {
  struct Case { std::size_t offset; const char* what; };
  // Offset 0 hits the magic; offset 30 hits payload bytes (24-byte
  // header + 6) so the CRC must catch it.
  for (const Case& c : {Case{0, "bad magic"}, Case{30, "crc mismatch"}}) {
    const std::string dir = freshDir("spill-corrupt-" +
                                     std::to_string(c.offset));
    mc::FrontierSpill spill(4, dir);
    std::vector<std::uint64_t> ids = {11, 22, 33, 44};
    spill.append(ids.data(), ids.size());  // capacity hit: one run file
    ASSERT_EQ(spill.runsWritten(), 1u);
    fs::path run;
    for (const auto& entry : fs::directory_iterator(dir))
      if (entry.path().extension() == ".run") run = entry.path();
    ASSERT_FALSE(run.empty());
    {
      std::fstream f(run, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(c.offset));
      f.put('Q');
    }
    std::vector<std::uint64_t> chunk;
    try {
      while (spill.drainChunk(chunk, 16)) {}
      FAIL() << "corrupt run at offset " << c.offset << " drained silently";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos)
          << e.what();
    }
  }
}

TEST(SpillIntegrity, TruncatedRunFailsDrainWithANamedError) {
  const std::string dir = freshDir("spill-trunc");
  mc::FrontierSpill spill(4, dir);
  std::vector<std::uint64_t> ids = {1, 2, 3, 4};
  spill.append(ids.data(), ids.size());
  fs::path run;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".run") run = entry.path();
  ASSERT_FALSE(run.empty());
  fs::resize_file(run, fs::file_size(run) - 8);  // lose the last id
  std::vector<std::uint64_t> chunk;
  EXPECT_THROW(
      { while (spill.drainChunk(chunk, 16)) {} }, std::runtime_error);
}

}  // namespace
}  // namespace ssno::io
