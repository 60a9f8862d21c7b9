// Test helper: randomized convergence stress for sizes beyond exhaustive
// reach, under any daemon — a Simulator loop, not a model check.
#ifndef SSNO_TESTS_MONTE_CARLO_HPP
#define SSNO_TESTS_MONTE_CARLO_HPP

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/protocol.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "mc/properties.hpp"

namespace ssno {

/// Scrambles the configuration `trials` times, runs under `daemon` for at
/// most `maxMoves` moves per trial, and requires `legit` to hold at some
/// point of every trial; after it first holds, it must keep holding for
/// `closureMoves` further moves (closure spot check).  Returns "" when
/// every trial passes, else what failed and the configuration.
[[nodiscard]] inline std::string monteCarlo(Protocol& protocol,
                                            const std::function<bool()>& legit,
                                            Daemon& daemon, Rng& rng,
                                            int trials, StepCount maxMoves,
                                            StepCount closureMoves) {
  for (int t = 0; t < trials; ++t) {
    protocol.randomize(rng);
    Simulator sim(protocol, daemon, rng);
    std::ostringstream failure;
    if (!sim.runUntil(legit, maxMoves).converged) {
      failure << "trial " << t << " failed to converge within " << maxMoves
              << " moves under " << daemon.name() << " daemon; configuration:\n"
              << mc::describeConfiguration(protocol);
      return failure.str();
    }
    for (StepCount done = 0; done < closureMoves;) {
      const std::vector<Move>& executed = sim.stepOnce();
      if (executed.empty()) break;
      done += static_cast<StepCount>(executed.size());
      if (!legit()) {
        failure << "trial " << t << ": closure violated after convergence "
                << "under " << daemon.name() << " daemon; configuration:\n"
                << mc::describeConfiguration(protocol);
        return failure.str();
      }
    }
  }
  return "";
}

}  // namespace ssno

#endif  // SSNO_TESTS_MONTE_CARLO_HPP
