// The Simulator's step from the public layer calls, for the traced runs
// of converge and stepping: the goal predicate, EnabledCache::refreshView,
// Daemon::selectInto, then Protocol::execute for a one-move step or
// SimultaneousEngine::execute, dispatched on the selection's size as
// Simulator::stepOnce does.  Timed, the loop charges each call to its
// layer from chained timestamps (one clock read closes a span and opens
// the next); untimed, the same loop is the trace-overhead baseline.
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <memory>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "core/daemon.hpp"
#include "core/enabled_cache.hpp"
#include "core/rng.hpp"
#include "core/sync_engine.hpp"

namespace pb {

/// Per-layer times (ns) and counts of layer-loop runs.
struct LayerNs {
  std::uint64_t legit = 0, guards = 0, daemon = 0, exec = 0, sync = 0,
                total = 0;
  std::uint64_t legitCalls = 0, refreshes = 0, steps = 0;
  std::uint64_t execMoves = 0;  // one-move steps
  std::uint64_t syncSteps = 0, syncMoves = 0;

  [[nodiscard]] std::uint64_t moves() const { return execMoves + syncMoves; }

  LayerNs& operator+=(const LayerNs& o) {
    legit += o.legit;
    guards += o.guards;
    daemon += o.daemon;
    exec += o.exec;
    sync += o.sync;
    total += o.total;
    legitCalls += o.legitCalls;
    refreshes += o.refreshes;
    steps += o.steps;
    execMoves += o.execMoves;
    syncSteps += o.syncSteps;
    syncMoves += o.syncMoves;
    return *this;
  }
};

/// Goal of a run that stops only on quiescence or its step condition.
struct NoGoal {};

/// Step condition of a run that stops only on its goal or quiescence.
struct Unbounded {
  bool operator()() const { return true; }
};

template <bool kTimed>
class LayerLoop {
 public:
  LayerLoop(ssno::Protocol& protocol, ssno::DaemonKind daemon, ssno::Rng& rng)
      : protocol_(protocol),
        daemon_(ssno::makeDaemon(daemon)),
        rng_(rng),
        cache_(protocol),
        engine_(protocol) {
    engine_.setUndoCapture(false);
  }

  /// Steps while `more()` holds, until `goal()` holds (checked before
  /// every step) or no move is enabled.  Successive runs continue from
  /// the same enabled cache.
  template <class Goal, class More = Unbounded>
  void run(Goal goal, More more = {}) {
    const auto start = Clock::now();
    auto t0 = stamp<kTimed>();
    while (more()) {
      if constexpr (!std::is_same_v<Goal, NoGoal>) {
        const bool done = goal();
        const auto t1 = stamp<kTimed>();
        ns.legit += nsBetween(t0, t1);
        ++ns.legitCalls;
        t0 = t1;
        if (done) break;
      }
      const ssno::EnabledView& view = cache_.refreshView();
      const auto t1 = stamp<kTimed>();
      ns.guards += nsBetween(t0, t1);
      ++ns.refreshes;
      if (view.empty()) break;
      daemon_->selectInto(view, rng_, selected_);
      const auto t2 = stamp<kTimed>();
      ns.daemon += nsBetween(t1, t2);
      if (selected_.size() == 1) {
        protocol_.execute(selected_.front().node, selected_.front().action);
        t0 = stamp<kTimed>();
        ns.exec += nsBetween(t2, t0);
        ++ns.execMoves;
      } else {
        engine_.execute(selected_);
        t0 = stamp<kTimed>();
        ns.sync += nsBetween(t2, t0);
        ++ns.syncSteps;
        ns.syncMoves += selected_.size();
      }
      ++ns.steps;
    }
    ns.total += nsBetween(start, Clock::now());
  }

  LayerNs ns;

 private:
  ssno::Protocol& protocol_;
  std::unique_ptr<ssno::Daemon> daemon_;
  ssno::Rng& rng_;
  ssno::EnabledCache cache_;
  ssno::SimultaneousEngine engine_;
  std::vector<ssno::Move> selected_;
};

}  // namespace pb

#endif  // PERFBENCH_LAYERS_HPP
