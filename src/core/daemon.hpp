// Daemons (schedulers / adversaries) — paper §2.1.2.
//
// A computation step takes the set of enabled moves and selects a
// non-empty subset, at most one move per processor (the *distributed
// daemon*).  Special cases: the central daemon picks exactly one move; the
// synchronous daemon picks one move at every enabled processor.  The
// paper's DFTNO assumes a weakly fair daemon; STNO tolerates an unfair
// one.  RoundRobinDaemon realizes weak fairness deterministically;
// AdversarialDaemon greedily tries to starve progress (it prefers moves
// that keep the system away from quiescence) and is *unfair*.
//
// Selection is bitmask-native: selectInto consumes an EnabledView (the
// EnabledCache's per-node action masks) and never materializes a move
// vector — the central daemon draws in O(log n), round-robin and
// adversarial in O(1 + n/4096) through the view's two-level node
// index, and the subset daemons touch only enabled processors, in
// O(#enabled + n/4096).  The reference selections over a node-major
// move vector live in tests/oracle/daemon_oracle.hpp; every daemon
// draws from the RNG in the same order and returns the same selection
// as its reference (pinned by tests/daemon_test.cpp across randomized
// configurations).
#ifndef SSNO_CORE_DAEMON_HPP
#define SSNO_CORE_DAEMON_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/enabled_view.hpp"
#include "core/protocol.hpp"
#include "core/rng.hpp"

namespace ssno {

class Daemon {
 public:
  virtual ~Daemon() = default;

  /// Selects the moves to execute this computation step into `out`
  /// (cleared first; callers reuse the buffer so steady-state stepping
  /// performs no heap allocations).
  /// Precondition: `enabled` is non-empty.  Postcondition: `out`
  /// non-empty, at most one move per processor, every move enabled.
  virtual void selectInto(const EnabledView& enabled, Rng& rng,
                          std::vector<Move>& out) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Utility: keep at most one (uniformly chosen) move per processor,
  /// reservoir-sampled over each node's actions in ascending order.
  static void onePerNode(const EnabledView& enabled, Rng& rng,
                         std::vector<Move>& out);
};

/// Central daemon: exactly one enabled processor acts per step.
class CentralDaemon final : public Daemon {
 public:
  void selectInto(const EnabledView& enabled, Rng& rng,
                  std::vector<Move>& out) override;
  [[nodiscard]] std::string name() const override { return "central"; }
};

/// Distributed daemon: a uniformly random non-empty subset of processors,
/// one enabled action each.
class DistributedDaemon final : public Daemon {
 public:
  void selectInto(const EnabledView& enabled, Rng& rng,
                  std::vector<Move>& out) override;
  [[nodiscard]] std::string name() const override { return "distributed"; }

 private:
  void pickSubset(Rng& rng, std::vector<Move>& out);

  std::vector<Move> perNode_;  // reusable scratch
};

/// Synchronous daemon: every enabled processor acts (one action each).
class SynchronousDaemon final : public Daemon {
 public:
  void selectInto(const EnabledView& enabled, Rng& rng,
                  std::vector<Move>& out) override;
  [[nodiscard]] std::string name() const override { return "synchronous"; }
};

/// Deterministic weakly fair central daemon: cycles through (processor,
/// action) pairs in lexicographic order and serves the next enabled pair
/// after the last served.  Fairness at action granularity matters: a
/// node-level rotation that picks the lowest enabled action can starve a
/// continuously enabled correction action behind a busy substrate action
/// (e.g. DFTNO's EdgeLabel at a star hub behind token moves).
class RoundRobinDaemon final : public Daemon {
 public:
  void selectInto(const EnabledView& enabled, Rng& rng,
                  std::vector<Move>& out) override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }

 private:
  Move last_{-1, 1 << 20};  // sentinel: before every real pair
};

/// Unfair adversary: repeatedly serves the lowest-numbered enabled
/// processor (so a continuously enabled high-numbered processor can be
/// starved for as long as others stay enabled).
class AdversarialDaemon final : public Daemon {
 public:
  void selectInto(const EnabledView& enabled, Rng& rng,
                  std::vector<Move>& out) override;
  [[nodiscard]] std::string name() const override { return "adversarial"; }
};

/// Factory used by parameterized tests and benches.
enum class DaemonKind {
  kCentral,
  kDistributed,
  kSynchronous,
  kRoundRobin,
  kAdversarial,
};

[[nodiscard]] std::unique_ptr<Daemon> makeDaemon(DaemonKind kind);
[[nodiscard]] std::string daemonKindName(DaemonKind kind);

}  // namespace ssno

#endif  // SSNO_CORE_DAEMON_HPP
