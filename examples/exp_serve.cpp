// exp_serve — the always-on experiment service.
//
//   exp_serve --socket PATH [options]    serve an AF_UNIX socket
//   exp_serve --pipe [options]           serve one stdin/stdout session
//
// Options:
//   --cache-dir DIR       persistent content-addressed result cache
//   --checkpoint-dir DIR  resumable-sweep checkpoints (default: cache
//                         dir's "checkpoints" subdir when caching)
//   --workers N           worker threads (default: hardware)
//   --trial-threads N     threads inside one unit (default: 1)
//   --trace-out FILE      record a Chrome trace-event JSON for the whole
//                         service lifetime, written at shutdown
//   --metrics FILE        write the Prometheus text exposition at
//                         shutdown (- for stderr); live values are
//                         always available via the `metrics` verb
//   --io-faults SPEC      install a deterministic I/O fault schedule
//                         (grammar in src/io/fault.hpp) — the chaos
//                         harness's hook for torn writes, ENOSPC, and
//                         injected crashes on every durable-state path
//
// When the cache directory cannot be created (full/unwritable disk),
// the service starts CACHELESS instead of dying: a warning goes to
// stderr, the serve_degraded gauge reads 1 in the metrics verb, and
// every unit recomputes.  Checkpoints keep working if their own dir is
// writable.
//
// The protocol (line-delimited JSON; submit/resume/status/result/
// cancel/stats/shutdown) is documented in src/serve/server.hpp and the
// README.  Pipe mode serves exactly one session and exits at EOF or a
// shutdown verb — it is what the tests and shell one-liners use:
//
//   printf '%s\n' '{"verb":"submit","target":"dftc/central/ring:64"}'
//       '{"verb":"result","job":1}'
//       | exp_serve --pipe --cache-dir /tmp/ssno-cache
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: exp_serve --socket PATH [options]\n"
               "       exp_serve --pipe [options]\n"
               "options: [--cache-dir DIR] [--checkpoint-dir DIR]\n"
               "         [--workers N] [--trial-threads N]\n"
               "         [--trace-out FILE] [--metrics FILE]\n"
               "         [--io-faults SPEC]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string socketPath, cacheDir, checkpointDir, tracePath, metricsPath,
      ioFaults;
  bool pipe = false;
  int workers = 0, trialThreads = 1;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      auto value = [&]() -> std::string {
        if (i + 1 >= args.size())
          throw std::invalid_argument(args[i] + " needs a value");
        return args[++i];
      };
      if (args[i] == "--socket") socketPath = value();
      else if (args[i] == "--pipe") pipe = true;
      else if (args[i] == "--cache-dir") cacheDir = value();
      else if (args[i] == "--checkpoint-dir") checkpointDir = value();
      else if (args[i] == "--workers") workers = std::stoi(value());
      else if (args[i] == "--trial-threads") trialThreads = std::stoi(value());
      else if (args[i] == "--trace-out") tracePath = value();
      else if (args[i] == "--metrics") metricsPath = value();
      else if (args[i] == "--io-faults") ioFaults = value();
      else throw std::invalid_argument("unknown option " + args[i]);
    }
    if (pipe == !socketPath.empty()) {
      usage();
      throw std::invalid_argument("give exactly one of --pipe or --socket");
    }
    if (!ioFaults.empty())
      ssno::io::installFaultSchedule(ssno::io::FaultSchedule::parse(ioFaults));

    std::unique_ptr<ssno::serve::ResultCache> cache;
    if (!cacheDir.empty()) {
      try {
        cache = std::make_unique<ssno::serve::ResultCache>(cacheDir);
      } catch (const std::runtime_error& e) {
        // Degrade, don't die: an unusable cache dir costs recomputes,
        // not availability.  The gauge makes the state observable.
        std::fprintf(stderr, "exp_serve: %s; serving cacheless\n", e.what());
        ssno::obs::Registry::global().gauge("serve_degraded").set(1);
      }
    }
    // Default the checkpoint dir under the cache dir only when the
    // cache actually came up — a failed cache dir would fail here too,
    // and checkpoints are optional.
    if (checkpointDir.empty() && cache != nullptr)
      checkpointDir = cacheDir + "/checkpoints";

    ssno::serve::SchedulerOptions opt;
    opt.workers = workers;
    opt.trialThreads = trialThreads;
    opt.cache = cache.get();
    opt.checkpointDir = checkpointDir;
    ssno::serve::ExpServer server(opt);

    if (!tracePath.empty()) ssno::obs::startTracing();
    if (pipe) {
      server.serveStream(std::cin, std::cout);
    } else {
      const int fd = server.listenUnix(socketPath);
      std::fprintf(stderr, "exp_serve: listening on %s\n",
                   socketPath.c_str());
      server.acceptLoop(fd);
    }
    if (!tracePath.empty()) {
      ssno::obs::stopTracing();
      if (!ssno::obs::writeTrace(tracePath))
        throw std::runtime_error("cannot write Chrome trace to " + tracePath);
      std::fprintf(stderr, "exp_serve: wrote Chrome trace to %s\n",
                   tracePath.c_str());
    }
    if (!metricsPath.empty()) {
      const std::string text =
          ssno::obs::Registry::global().renderPrometheus();
      if (metricsPath == "-") {
        std::fputs(text.c_str(), stderr);
      } else {
        std::ofstream out(metricsPath);
        out << text;
        out.close();
        if (!out)
          throw std::runtime_error("cannot write metrics to " + metricsPath);
        std::fprintf(stderr, "exp_serve: wrote metrics to %s\n",
                     metricsPath.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exp_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
