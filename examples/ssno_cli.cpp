// ssno_cli — run any protocol on any topology from the command line.
//
//   ssno_cli [--topo SPEC] [--protocol dftno | stno | stno-dfs]
//            [--daemon central|distributed|synchronous|round-robin|
//                      adversarial]
//            [--seed N] [--faults K] [--budget MOVES] [--dot] [--trace]
//
// SPEC is the experiment harness's topology grammar (src/exp/topology.hpp),
// e.g. ring:12, grid:3x4, lollipop:4x5 or er:16:0.2:7.  Scrambles the
// configuration, stabilizes, prints the orientation (and optionally a
// Graphviz DOT rendering with the assigned names), injects K random
// faults (0 <= K <= n) and re-stabilizes.  Bad input exits 2 with a
// message.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/daemon.hpp"
#include "core/fault.hpp"
#include "core/graph.hpp"
#include "core/graph_algo.hpp"
#include "core/scheduler.hpp"
#include "core/trace.hpp"
#include "exp/fmt.hpp"
#include "exp/scenario.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "sptree/dfs_tree.hpp"

namespace {

using namespace ssno;

struct Options {
  std::string topo = "grid:3x3";
  std::string protocol = "dftno";
  std::string daemon = "round-robin";
  std::uint64_t seed = 1;
  int faults = 0;
  StepCount budget = 50'000'000;
  bool dot = false;
  bool trace = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--topo T] [--protocol dftno|stno|stno-dfs] "
               "[--daemon D] [--seed N] [--faults K] [--budget M] [--dot] "
               "[--trace]\n",
               argv0);
  std::exit(2);
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--topo") opt.topo = next();
    else if (a == "--protocol") opt.protocol = next();
    else if (a == "--daemon") opt.daemon = next();
    else if (a == "--seed")
      opt.seed = exp::parseFlag<std::uint64_t>(a, next());
    else if (a == "--faults") opt.faults = exp::parseFlag<int>(a, next());
    else if (a == "--budget")
      opt.budget = exp::parseFlag<StepCount>(a, next());
    else if (a == "--dot") opt.dot = true;
    else if (a == "--trace") opt.trace = true;
    else usage(argv[0]);
  }

  if (opt.budget <= 0)
    throw std::invalid_argument("--budget must be positive, got " +
                                std::to_string(opt.budget));
  const exp::TopologySpec spec = exp::TopologySpec::parse(opt.topo);
  const Graph g = spec.build();
  if (opt.faults < 0 || opt.faults > g.nodeCount())
    throw std::invalid_argument("--faults must be in [0, " +
                                std::to_string(g.nodeCount()) + "], got " +
                                std::to_string(opt.faults));
  const DaemonKind daemonKind = exp::parseDaemonKind(opt.daemon);
  std::printf("topology %s: n=%d m=%d Δ=%d diameter=%d\n",
              spec.name().c_str(), g.nodeCount(), g.edgeCount(),
              g.maxDegree(), diameter(g));

  std::unique_ptr<Protocol> proto;
  std::function<bool()> legit;
  std::function<Orientation()> orient;
  if (opt.protocol == "dftno") {
    auto p = std::make_unique<Dftno>(g);
    auto* raw = p.get();
    legit = [raw] { return raw->isLegitimate(); };
    orient = [raw] { return raw->orientation(); };
    proto = std::move(p);
  } else if (opt.protocol == "stno") {
    auto p = std::make_unique<Stno>(g);
    auto* raw = p.get();
    legit = [raw] { return raw->isLegitimate(); };
    orient = [raw] { return raw->orientation(); };
    proto = std::move(p);
  } else if (opt.protocol == "stno-dfs") {
    auto p = std::make_unique<Stno>(g, portOrderDfsTree(g));
    auto* raw = p.get();
    legit = [raw] { return raw->isLegitimate(); };
    orient = [raw] { return raw->orientation(); };
    proto = std::move(p);
  } else {
    usage(argv[0]);
  }

  auto daemon = makeDaemon(daemonKind);
  Rng rng(opt.seed);
  proto->randomize(rng);
  Simulator sim(*proto, *daemon, rng);
  TraceRecorder trace(*proto);
  if (opt.trace)
    sim.setMoveObserver([&trace](const Move& m) { trace.record(m); });

  const RunStats stats = sim.runUntil(legit, opt.budget);
  if (!stats.converged) {
    std::printf("did NOT converge within %lld moves\n",
                static_cast<long long>(opt.budget));
    return 1;
  }
  std::printf("stabilized: %lld moves, %lld steps, %lld rounds under %s\n",
              static_cast<long long>(stats.moves),
              static_cast<long long>(stats.steps),
              static_cast<long long>(stats.rounds),
              daemon->name().c_str());
  const Orientation o = orient();
  std::printf("%s", renderOrientation(o).c_str());
  std::printf("SP1=%d SP2=%d locallyOriented=%d edgeSymmetry=%d\n",
              satisfiesSP1(o), satisfiesSP2(o), isLocallyOriented(o),
              hasEdgeSymmetry(o));

  if (opt.faults > 0) {
    FaultInjector inj(*proto);
    inj.corruptK(opt.faults, rng);
    const RunStats rec = sim.runUntil(legit, opt.budget);
    std::printf("after %d-node fault: %s in %lld moves\n", opt.faults,
                rec.converged ? "recovered" : "NOT recovered",
                static_cast<long long>(rec.moves));
  }

  if (opt.dot) {
    std::vector<std::string> labels;
    labels.reserve(static_cast<std::size_t>(g.nodeCount()));
    for (NodeId p = 0; p < g.nodeCount(); ++p)
      labels.push_back(std::to_string(o.nameOf(p)));
    std::printf("%s", toDot(g, labels).c_str());
  }
  if (opt.trace) std::printf("%s", trace.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssno_cli: %s\n", e.what());
    return 2;
  }
}
