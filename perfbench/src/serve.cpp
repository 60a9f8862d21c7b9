// serve: an in-process ExpServer on an AF_UNIX socket with one worker and
// one closed-loop client.  Each request is a `submit` of a small scenario
// (STNO, distributed daemon, grid:8x8, 5 trials, a distinct seed) followed
// by `result`; its latency runs from sending `submit` to reading the final
// `result` line.  Phase A (cold) starts from an empty cache directory, so
// every request computes and stores; phase B (warm) repeats the same
// submissions, so every request is a cache fetch.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "exp/canon.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace fs = std::filesystem;
using ssno::serve::JsonValue;

constexpr const char* kTarget = "stno/distributed/grid:8x8";
constexpr int kTrials = 5;

struct Plan {
  int cold = 0;    // distinct requests (seeds)
  int warm = 0;    // warm requests per round
  int rounds = 0;  // each round starts from an empty cache
};

Plan makePlan(const Args& args, bool traced) {
  if (args.tiny) return {12, 24, 2};
  if (traced) return {100, 1000, 1};
  return {std::max(100, args.seconds * 15), std::max(500, args.seconds * 50), 6};
}

/// Distinct, JSON-exact request seeds derived from the run seed.
std::vector<std::uint64_t> requestSeeds(const Args& args, int count) {
  const std::uint64_t base = (args.seed % 1'000'000) * 100'000;
  std::vector<std::uint64_t> out;
  for (int i = 0; i < count; ++i)
    out.push_back(base + static_cast<std::uint64_t>(i));
  return out;
}

std::string submitLine(std::uint64_t seed) {
  return "{\"verb\":\"submit\",\"target\":\"" + std::string(kTarget) +
         "\",\"trials\":" + std::to_string(kTrials) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

/// The scenario the server resolves for submitLine(seed).
ssno::exp::Scenario scenarioFor(std::uint64_t seed) {
  ssno::exp::Scenario s = ssno::exp::resolve(kTarget).front();
  s.trials = kTrials;
  s.seed = seed;
  return s;
}

/// Removes the directory tree when the workload ends, however it ends.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Line client over a connected AF_UNIX socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      const std::string err = strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect(" + path + "): " + err);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t w = ::write(fd_, data.data() + sent, data.size() - sent);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("client write failed");
      sent += static_cast<std::size_t>(w);
    }
  }

  std::string readLine() {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 65536) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// A running server (cache, one worker, accept thread) and its client.
class Service {
 public:
  Service(const std::string& dir, const std::string& socketPath) {
    cache_ = std::make_unique<ssno::serve::ResultCache>(dir + "/cache");
    ssno::serve::SchedulerOptions opt;
    opt.workers = 1;
    opt.trialThreads = 1;
    opt.cache = cache_.get();
    server_ = std::make_unique<ssno::serve::ExpServer>(opt);
    const int fd = server_->listenUnix(socketPath);
    acceptor_ = std::thread([this, fd] { server_->acceptLoop(fd); });
    try {
      client_ = std::make_unique<Client>(socketPath);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Service() { stop(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  Client& client() { return *client_; }

 private:
  void stop() {
    if (client_) {
      try {
        client_->send("{\"verb\":\"shutdown\"}");
        (void)client_->readLine();
      } catch (const std::exception&) {
      }
      client_.reset();
    }
    server_->requestShutdown();
    if (acceptor_.joinable()) acceptor_.join();
  }

  std::unique_ptr<ssno::serve::ResultCache> cache_;
  std::unique_ptr<ssno::serve::ExpServer> server_;
  std::thread acceptor_;
  std::unique_ptr<Client> client_;
};

/// One served request: its latency and the parsed row fields.
struct Reply {
  double seconds = 0;
  bool ok = false;
  bool cached = false;
  std::string csv;
  std::string error;
};

std::uint64_t jobId(const std::string& line) {
  const std::size_t at = line.find("\"job\":");
  if (at == std::string::npos) throw std::runtime_error("submit failed: " + line);
  return std::stoull(line.substr(at + 6));
}

/// submit + result through the socket; parsing happens after the clock
/// stops.
Reply request(Client& client, std::uint64_t seed) {
  const auto t0 = Clock::now();
  client.send(submitLine(seed));
  const std::string submitReply = client.readLine();
  client.send("{\"verb\":\"result\",\"job\":" +
              std::to_string(jobId(submitReply)) + "}");
  std::vector<std::string> lines;
  for (;;) {
    lines.push_back(client.readLine());
    if (lines.back().find("\"complete\":") != std::string::npos) break;
  }
  Reply r;
  r.seconds = secondsBetween(t0, Clock::now());
  try {
    if (lines.size() != 2) throw std::runtime_error("expected one row");
    const JsonValue row = JsonValue::parse(lines[0]);
    const JsonValue end = JsonValue::parse(lines[1]);
    r.cached = row.find("cached") != nullptr && row.find("cached")->asBool();
    r.csv = row.find("csv") != nullptr ? row.find("csv")->asString() : "";
    r.ok = row.find("ok")->asBool() && !row.find("failed")->asBool() &&
           end.find("complete")->asBool() && end.find("done")->asInt() == 1;
    if (!r.ok) r.error = lines[0];
  } catch (const std::exception& e) {
    r.error = std::string(e.what()) + ": " + lines.front();
  }
  return r;
}

struct Served {
  std::vector<Reply> cold;           // one per seed, in seed order
  std::vector<Reply> warm;
  std::vector<std::size_t> warmSeed;  // index into the seeds per warm reply
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t writes = 0, fsyncs = 0, renames = 0;
};

/// One cold request per seed; after each, warm requests (spread evenly,
/// `warm` in total) walk back from it through the seeds already served,
/// so both phases sample the whole run.  Warm fetches write nothing, so the io
/// counter deltas are the cold requests' durable writes.
Served runRequests(Service& svc, const std::vector<std::uint64_t>& seeds,
                   int warm) {
  Served s;
  const std::uint64_t misses0 = counterValue("serve_cache_misses_total");
  const std::uint64_t hits0 = counterValue("serve_cache_hits_total");
  const std::uint64_t writes0 = counterValue("io_write_total");
  const std::uint64_t fsyncs0 = counterValue("io_fsync_total");
  const std::uint64_t renames0 = counterValue("io_rename_total");
  const std::size_t n = seeds.size();
  const auto total = static_cast<std::size_t>(warm);
  for (std::size_t i = 0; i < n; ++i) {
    s.cold.push_back(request(svc.client(), seeds[i]));
    const std::size_t due = (i + 1) * total / n;
    for (std::size_t back = 0; s.warm.size() < due; ++back) {
      const std::size_t k = i - back % (i + 1);
      s.warm.push_back(request(svc.client(), seeds[k]));
      s.warmSeed.push_back(k);
    }
  }
  s.misses = counterValue("serve_cache_misses_total") - misses0;
  s.hits = counterValue("serve_cache_hits_total") - hits0;
  s.writes = counterValue("io_write_total") - writes0;
  s.fsyncs = counterValue("io_fsync_total") - fsyncs0;
  s.renames = counterValue("io_rename_total") - renames0;
  return s;
}

/// A seed outside every measured range, for the set-up request.
constexpr std::uint64_t kWarmupSeedOffset = 99'999;
constexpr int kSetUpsPerRound = 8;

/// Layer times of the in-process request pipeline.
struct PipelineNs {
  std::uint64_t json = 0, canon = 0, fetch = 0, runner = 0, payload = 0,
                store = 0, total = 0;
  std::uint64_t requests = 0, stores = 0;
};

/// The server's request pipeline from the public calls: parse,
/// canonical scenario and digest, fetch, then either parse the cached
/// payload or run, serialize and store.  Returns the result's CSV rows.
template <bool kTimed>
std::string pipeline(ssno::serve::ResultCache& cache,
                     const ssno::exp::ExperimentRunner& runner,
                     std::uint64_t seed, PipelineNs& ns) {
  const auto start = Clock::now();
  const auto t0 = stamp<kTimed>();
  const JsonValue req = JsonValue::parse(submitLine(seed));
  const auto t1 = stamp<kTimed>();
  ssno::exp::Scenario s =
      ssno::exp::resolve(req.find("target")->asString()).front();
  s.trials = static_cast<int>(req.find("trials")->asInt());
  s.seed = static_cast<std::uint64_t>(req.find("seed")->asInt());
  (void)ssno::exp::canonicalScenario(s);
  (void)ssno::exp::scenarioDigest(s, ssno::serve::kCacheSalt);
  const auto t2 = stamp<kTimed>();
  const std::optional<std::string> hit = cache.fetch(s);
  const auto t3 = stamp<kTimed>();
  ns.json += nsBetween(t0, t1);
  ns.canon += nsBetween(t1, t2);
  ns.fetch += nsBetween(t2, t3);
  ssno::exp::ScenarioResult result;
  if (hit) {
    result = ssno::exp::parseResultPayload(*hit);
    result.scenario = s;
    ns.payload += nsBetween(t3, stamp<kTimed>());
  } else {
    result = runner.run(s);
    const auto t4 = stamp<kTimed>();
    const std::string payload = ssno::exp::resultPayload(result);
    const auto t5 = stamp<kTimed>();
    (void)cache.store(s, payload);
    ns.runner += nsBetween(t3, t4);
    ns.payload += nsBetween(t4, t5);
    ns.store += nsBetween(t5, stamp<kTimed>());
    ++ns.stores;
  }
  ns.total += nsBetween(start, Clock::now());
  ++ns.requests;
  return ssno::exp::csvRows(result);
}

}  // namespace

EndToEnd serveRun(const Args& args, Checks& checks) {
  const Plan plan = makePlan(args, false);
  const std::vector<std::uint64_t> seeds = requestSeeds(args, plan.cold);
  const std::uint64_t warmupSeed = seeds.front() + kWarmupSeedOffset;
  WorkDir work(args.workdir);
  const std::string socketPath = work.path() + "/s.sock";
  EndToEnd out;
  std::unique_ptr<Service> svc;
  int services = 0;
  const auto start = [&] {
    const std::string dir = work.path() + "/run" + std::to_string(services++);
    svc = std::make_unique<Service>(dir, socketPath);
  };
  // Set-up is the time to the first served result: cache directory,
  // server start, client connect and one request through the cold path
  // (a seed outside the measured ones), from a fresh cache each time,
  // kSetUpsPerRound times before every round.
  const auto setUpBurst = [&] {
    for (int k = 0; k < kSetUpsPerRound; ++k) {
      svc.reset();
      timeSetUp(out.setup, "first result", [&] {
        start();
        checks.op(request(svc->client(), warmupSeed).ok,
                  "set-up request failed");
      });
    }
    svc.reset();
  };

  // Every round replays the same requests against an empty cache; a
  // request's latency is its best over the rounds.
  const ssno::exp::ExperimentRunner runner(1);
  std::vector<std::string> direct(seeds.size());
  Served first;
  for (int round = 0; round < plan.rounds; ++round) {
    setUpBurst();
    start();
    const Served served = runRequests(*svc, seeds, plan.warm);
    svc.reset();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const Reply& r = served.cold[i];
      out.a.add(std::to_string(seeds[i]), r.seconds, 1);
      // Served CSV bytes must equal a direct ExperimentRunner run.
      if (round == 0) {
        direct[i] = ssno::exp::csvRows(runner.run(scenarioFor(seeds[i])));
        if (i == 0 && args.corrupt == "count") direct[i] += "0";
      }
      checks.op(r.ok && !r.cached && r.csv == direct[i],
                "cold request seed " + std::to_string(seeds[i]) +
                    (r.ok ? ": served CSV differs from a direct run"
                          : ": " + r.error));
    }
    for (std::size_t i = 0; i < served.warm.size(); ++i) {
      const Reply& r = served.warm[i];
      const std::size_t k = served.warmSeed[i];
      out.b.add(std::to_string(seeds[k]), r.seconds, 1);
      const bool cached =
          args.corrupt == "verdict" && i == 0 ? !r.cached : r.cached;
      checks.op(r.ok && cached && r.csv == served.cold[k].csv,
                "warm request " + std::to_string(i) +
                    (r.ok ? ": not cached or CSV differs" : ": " + r.error));
    }
    checks.extra(served.misses == seeds.size(),
                 "serve_cache_misses_total delta != cold requests");
    checks.extra(served.hits == served.warm.size(),
                 "serve_cache_hits_total delta != warm requests");
    if (round == 0) first = served;
  }

  const double cold = static_cast<double>(plan.cold);
  std::ostringstream info;
  info << "{\"serve\":{\"requests\":" << plan.cold
       << ",\"warm_requests_per_round\":" << plan.warm
       << ",\"rounds\":" << plan.rounds << ",\"cold_ms_p50\":"
       << fmtDouble(out.a.p50Ms()) << ",\"cold_ms_tail\":"
       << fmtDouble(out.a.tailMs()) << ",\"cold_tail_quantile\":\""
       << out.a.tailLabel() << "\",\"warm_ms_p50\":"
       << fmtDouble(out.b.p50Ms()) << ",\"warm_ms_tail\":"
       << fmtDouble(out.b.tailMs()) << ",\"warm_tail_quantile\":\""
       << out.b.tailLabel() << "\",\"io_writes_per_cold\":"
       << fmtDouble(static_cast<double>(first.writes) / cold)
       << ",\"io_fsyncs_per_cold\":"
       << fmtDouble(static_cast<double>(first.fsyncs) / cold)
       << ",\"io_renames_per_cold\":"
       << fmtDouble(static_cast<double>(first.renames) / cold) << "}}";
  out.info = info.str();
  return out;
}

void serveTrace(const Args& args, Checks& checks, SpanLedger& spans,
                Metrics& out) {
  const Plan plan = makePlan(args, true);
  const std::vector<std::uint64_t> seeds = requestSeeds(args, plan.cold);
  WorkDir work(args.workdir);
  const ssno::exp::ExperimentRunner runner(1);

  // Repeated, each rep from empty caches; per request, back to back: the
  // request through the server (the residual's base; best latency per
  // request), through the untimed pipeline (the overhead's base) and
  // through the traced pipeline (the rep with the lowest total is kept).
  Phase servedCold, servedWarm;
  std::uint64_t writes = 0, fsyncs = 0, renames = 0;  // server, first rep
  std::uint64_t bareTotal = ~std::uint64_t{0};
  PipelineNs cold, warm;
  cold.total = ~std::uint64_t{0};
  ssno::serve::ResultCache::Counters cc;
  for (int rep = 0; rep < kTraceRepeats; ++rep) {
    const std::string tag = std::to_string(rep);
    Service svc(work.path() + "/served" + tag, work.path() + "/s.sock");
    ssno::serve::ResultCache bareCache(work.path() + "/bare" + tag);
    ssno::serve::ResultCache tracedCache(work.path() + "/traced" + tag);
    PipelineNs bareCold, bareWarm, tracedCold, tracedWarm;
    const auto one = [&](std::size_t k, bool isCold, Phase& phase,
                         PipelineNs& bareNs, PipelineNs& tracedNs) {
      const std::uint64_t w0 = counterValue("io_write_total");
      const std::uint64_t f0 = counterValue("io_fsync_total");
      const std::uint64_t r0 = counterValue("io_rename_total");
      const Reply r = request(svc.client(), seeds[k]);
      if (rep == 0 && isCold) {
        writes += counterValue("io_write_total") - w0;
        fsyncs += counterValue("io_fsync_total") - f0;
        renames += counterValue("io_rename_total") - r0;
      }
      phase.add(std::to_string(k), r.seconds, 1);
      checks.op(r.ok && r.cached != isCold &&
                    pipeline<false>(bareCache, runner, seeds[k], bareNs) == r.csv &&
                    pipeline<true>(tracedCache, runner, seeds[k], tracedNs) == r.csv,
                "traced request seed " + std::to_string(seeds[k]) +
                    ": server and pipelines disagree");
    };
    for (std::size_t i = 0; i < seeds.size(); ++i)
      one(i, true, servedCold, bareCold, tracedCold);
    for (int j = 0; j < plan.warm; ++j)
      one(static_cast<std::size_t>(j) % seeds.size(), false, servedWarm,
          bareWarm, tracedWarm);
    bareTotal = std::min(bareTotal, bareCold.total + bareWarm.total);
    if (tracedCold.total + tracedWarm.total < cold.total + warm.total) {
      cold = tracedCold;
      warm = tracedWarm;
      cc = tracedCache.counters();
    }
  }

  spans.declare("serve", "");
  const auto record = [&](const std::string& root, const PipelineNs& p) {
    spans.declare(root, "serve");
    const std::tuple<const char*, std::uint64_t, std::uint64_t> layers[] = {
        {"serve.json", p.json, p.requests},
        {"exp.canon", p.canon, p.requests},
        {"serve.cache.fetch", p.fetch, p.requests},
        {"exp.runner", p.runner, p.stores},
        {"exp.payload", p.payload, p.requests},
        {"serve.cache.store", p.store, p.stores}};
    spans.add(root, p.total, p.requests);
    double sum = 0;
    for (const auto& [layer, ns, count] : layers) {
      const double self = lessClockReads(ns, count);
      spans.declare(root + "." + layer, root);
      spans.add(root + "." + layer, static_cast<std::uint64_t>(self), count);
      sum += self;
    }
    return sum;
  };
  const double coldLayers = record("serve.cold", cold);
  const double warmLayers = record("serve.warm", warm);
  spans.add("serve", cold.total + warm.total);

  const auto put = [&out](const std::string& name, double v,
                          const std::string& unit) {
    out["serve." + name] = {v, unit};
  };
  const double nCold = static_cast<double>(plan.cold);
  const double nWarm = static_cast<double>(plan.warm);
  const double requests = nCold + nWarm;
  const auto layer = [&](const std::string& name) {
    return static_cast<double>(spans.totalNs("serve.cold." + name) +
                               spans.totalNs("serve.warm." + name));
  };
  put("json.ns_per_req", layer("serve.json") / requests, "ns");
  put("exp.canon.ns_per_req", layer("exp.canon") / requests, "ns");
  put("exp.payload.ns_per_req", layer("exp.payload") / requests, "ns");
  put("cache.fetch_ns", layer("serve.cache.fetch") / requests, "ns");
  put("cache.store_ns", layer("serve.cache.store") / nCold, "ns");
  put("cache.hits", static_cast<double>(cc.hits), "count");
  put("cache.misses", static_cast<double>(cc.misses), "count");
  put("cache.hit_ratio",
      static_cast<double>(cc.hits) /
          std::max<double>(1, static_cast<double>(cc.hits + cc.misses)),
      "ratio");
  put("io.writes", static_cast<double>(writes) / nCold, "count");
  put("io.fsyncs", static_cast<double>(fsyncs) / nCold, "count");
  put("io.renames", static_cast<double>(renames) / nCold, "count");
  put("exp.runner.compute_ns", layer("exp.runner") / nCold, "ns");
  // Mean best latency per request, through the server.
  const double coldNs = 1e9 * servedCold.passSeconds() /
                        static_cast<double>(servedCold.inputs());
  const double warmNs = 1e9 * servedWarm.passSeconds() /
                        static_cast<double>(servedWarm.inputs());
  put("cold.ms_per_req", 1e-6 * coldNs, "ms");
  put("warm.ms_per_req", 1e-6 * warmNs, "ms");
  put("cold.residual_pct", residualPct(coldNs, coldLayers / nCold), "%");
  put("warm.residual_pct", residualPct(warmNs, warmLayers / nWarm), "%");
  put("trace_overhead_pct",
      pctOver(static_cast<double>(cold.total + warm.total),
              static_cast<double>(bareTotal)),
      "%");
}

}  // namespace pb
