// Legitimacy predicates against their oracles (tests/oracle): DFTC's
// L_TC, DFTNO's L_TC and L_NO under both EdgeLabel guards, and the
// silent predicates of STNO (BFS tree and fixed tree) and the BFS tree.
// Production checks are incremental — O(writes since the previous check)
// from the protocol's writer feed — so every test drives a different
// kind of write and compares at every check: simulator steps under all
// four daemons (the synchronous one commits DFTNO substrate state with
// no substrate-level notification), single-node perturbations around
// every orbit configuration, whole-configuration writes, delta decodes,
// fault injection and the searching daemon's restores.  The rest pin the
// contract: a check has no side effects, building the index early or
// late changes nothing, and a converging trial pays one resync and at
// most one confirmation per phase.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/daemon.hpp"
#include "core/enabled_cache.hpp"
#include "core/fault.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "dftc/dftc.hpp"
#include "exp/topology.hpp"
#include "obs/metrics.hpp"
#include "oracle/legitimacy_oracle.hpp"
#include "orientation/dftno.hpp"
#include "orientation/stno.hpp"
#include "resil/search_daemon.hpp"
#include "sptree/bfs_tree.hpp"
#include "sptree/dfs_tree.hpp"

namespace ssno {
namespace {

const std::vector<std::string> kTopologies = {"ring:8", "path:6", "grid:3x3",
                                              "star:6", "dreg:10:3:1"};

Graph topology(const std::string& spec) {
  return exp::TopologySpec::parse(spec).build();
}

/// One protocol under test with its production predicates and oracles.
struct Subject {
  std::string name;
  std::unique_ptr<Protocol> protocol;
  /// Evaluates every production predicate against its oracle; returns
  /// the first disagreement, or "" when all agree.
  std::function<std::string()> compare;
  /// The production goal (L_TC for DFTC, L_NO otherwise).
  std::function<bool()> legitimate;
  /// Legitimate-walk configurations: the whole DFTC / DFTNO walk (for
  /// DFTNO the prefix is L_TC-legitimate but not L_NO), or the unique
  /// terminal configuration of a silent protocol.
  std::vector<std::vector<int>> orbit;
};

std::string verdict(const char* predicate, bool production, bool oracle) {
  if (production == oracle) return "";
  return std::string(predicate) + ": production " +
         (production ? "true" : "false") + ", oracle " +
         (oracle ? "true" : "false");
}

Subject dftcSubject(const Graph& g) {
  auto dftc = std::make_unique<Dftc>(g);
  Dftc* d = dftc.get();
  auto ltc = std::make_shared<oracle::Orbit>(oracle::dftcOrbit(g));
  Subject s{"dftc", std::move(dftc), {}, {}, ltc->sequence};
  s.compare = [d, ltc] {
    return verdict("L_TC", d->isLegitimate(), ltc->contains(*d));
  };
  s.legitimate = [d] { return d->isLegitimate(); };
  return s;
}

Subject dftnoSubject(const Graph& g, EdgeLabelGuard guard) {
  auto dftno = std::make_unique<Dftno>(g, guard);
  Dftno* d = dftno.get();
  auto ltc = std::make_shared<oracle::Orbit>(oracle::dftcOrbit(g));
  auto lno = std::make_shared<oracle::Orbit>(oracle::dftnoOrbit(g, guard));
  Subject s{guard == EdgeLabelGuard::kContinuous ? "dftno" : "dftno-paper",
            std::move(dftno), {}, {}, lno->sequence};
  s.compare = [d, ltc, lno] {
    std::string bad = verdict("L_TC", d->substrateLegitimate(),
                              ltc->contains(d->substrate()));
    if (bad.empty())
      bad = verdict("L_NO", d->isLegitimate(), lno->contains(*d));
    return bad;
  };
  s.legitimate = [d] { return d->isLegitimate(); };
  return s;
}

/// The terminal configuration a silent protocol reaches from a random one.
std::vector<int> terminalConfiguration(Protocol& p) {
  Rng rng(17);
  p.randomize(rng);
  auto daemon = makeDaemon(DaemonKind::kCentral);
  Simulator sim(p, *daemon, rng);
  EXPECT_TRUE(sim.runToQuiescence(10'000'000).terminal);
  return p.rawConfiguration();
}

Subject stnoSubject(const Graph& g, bool fixedTree) {
  const auto make = [&g, fixedTree] {
    return fixedTree ? std::make_unique<Stno>(g, portOrderDfsTree(g))
                     : std::make_unique<Stno>(g);
  };
  auto stno = make();
  Stno* st = stno.get();
  Subject s{fixedTree ? "stno-fixed" : "stno", std::move(stno), {}, {},
            {terminalConfiguration(*make())}};
  s.compare = [st] {
    std::string bad = verdict("L_ST", st->substrateLegitimate(),
                              oracle::stnoSubstrateLegitimate(*st));
    if (bad.empty())
      bad = verdict("L_NO", st->isLegitimate(), oracle::stnoLegitimate(*st));
    return bad;
  };
  s.legitimate = [st] { return st->isLegitimate(); };
  return s;
}

Subject bfsSubject(const Graph& g) {
  auto tree = std::make_unique<BfsTree>(g);
  BfsTree* t = tree.get();
  Subject s{"bfs", std::move(tree), {}, {}, {}};
  s.orbit = {terminalConfiguration(*std::make_unique<BfsTree>(g))};
  s.compare = [t] {
    return verdict("L_ST", t->isLegitimate(), oracle::bfsLegitimate(*t));
  };
  s.legitimate = [t] { return t->isLegitimate(); };
  return s;
}

std::vector<Subject> allSubjects(const Graph& g) {
  std::vector<Subject> out;
  out.push_back(dftcSubject(g));
  out.push_back(dftnoSubject(g, EdgeLabelGuard::kContinuous));
  out.push_back(dftnoSubject(g, EdgeLabelGuard::kPaperFaithful));
  out.push_back(stnoSubject(g, /*fixedTree=*/false));
  out.push_back(stnoSubject(g, /*fixedTree=*/true));
  out.push_back(bfsSubject(g));
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counterValue(name);
}

/// Counts disagreements, keeping the first one's description.
struct Disagreements {
  int count = 0;
  std::string first;

  void note(const std::string& bad, const std::string& where) {
    if (bad.empty()) return;
    if (count++ == 0) first = where + ": " + bad;
  }
};

/// Codes of p's local states to perturb with: all of them, or an evenly
/// strided sample of `cap` when there are more.
std::vector<std::uint64_t> perturbationCodes(const Protocol& p, NodeId v,
                                             std::uint64_t cap) {
  const std::uint64_t count = p.localStateCount(v);
  std::vector<std::uint64_t> codes;
  const std::uint64_t stride = count <= cap ? 1 : count / cap;
  for (std::uint64_t c = 0; c < count && codes.size() < cap; c += stride)
    codes.push_back(c);
  return codes;
}

/// Randomizes, runs to the goal comparing at every check, then keeps
/// stepping through the closure region.  Returns the checks made.
long compareAlongRun(Subject& s, DaemonKind kind, std::uint64_t seed,
                     const std::string& label) {
  const int n = s.protocol->graph().nodeCount();
  Rng rng(seed);
  s.protocol->randomize(rng);
  auto daemon = makeDaemon(kind);
  Simulator sim(*s.protocol, *daemon, rng);
  Disagreements d;
  long checks = 0;
  const RunStats st = sim.runUntil(
      [&] {
        d.note(s.compare(), "step " + std::to_string(checks++));
        return s.legitimate();
      },
      50'000);
  // The paper's EdgeLabel guard converges only under strong fairness
  // (DESIGN.md erratum 4); the others must converge.
  if (s.name != "dftno-paper") {
    EXPECT_TRUE(st.converged) << label;
  }
  for (int i = 0; i < 4 * n && !sim.stepOnce().empty(); ++i, ++checks)
    d.note(s.compare(), "after convergence, step " + std::to_string(i));
  EXPECT_EQ(d.count, 0) << label << ": " << d.first;
  return checks;
}

TEST(Legitimacy, AgreesWithOracleAlongConvergingRuns) {
  long checks = 0;
  for (const std::string& spec : kTopologies) {
    const Graph g = topology(spec);
    for (const DaemonKind kind :
         {DaemonKind::kCentral, DaemonKind::kRoundRobin,
          DaemonKind::kDistributed, DaemonKind::kSynchronous}) {
      for (Subject& s : allSubjects(g))
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
          checks += compareAlongRun(s, kind, seed,
                                    s.name + " " + spec + " " +
                                        daemonKindName(kind) + " seed " +
                                        std::to_string(seed));
    }
  }
  EXPECT_GT(checks, 20'000);  // the runs are not trivially short
}

TEST(Legitimacy, AgreesWithOracleAroundEveryOrbitConfiguration) {
  // Every single-node perturbation of every legitimate-walk
  // configuration (every local state of DFTC processors; an even sample
  // of 8 codes per processor for the composed protocols, whose local
  // state spaces reach millions), each compared after the write and
  // after the restore.
  for (const std::string& spec : kTopologies) {
    const Graph g = topology(spec);
    ASSERT_LE(g.nodeCount(), 12) << spec;
    for (Subject& s : allSubjects(g)) {
      Protocol& p = *s.protocol;
      const std::uint64_t cap = s.name == "dftc" ? ~std::uint64_t{0} : 8;
      Disagreements d;
      for (std::size_t i = 0; i < s.orbit.size(); ++i) {
        p.setRawConfiguration(s.orbit[i]);
        d.note(s.compare(), "orbit " + std::to_string(i));
        for (NodeId v = 0; v < g.nodeCount(); ++v) {
          const std::uint64_t original = p.encodeNode(v);
          for (const std::uint64_t code : perturbationCodes(p, v, cap)) {
            p.decodeNode(v, code);
            const std::string where = "orbit " + std::to_string(i) +
                                      " node " + std::to_string(v) +
                                      " code " + std::to_string(code);
            d.note(s.compare(), where);
            p.decodeNode(v, original);
            d.note(s.compare(), where + " restored");
          }
        }
      }
      EXPECT_EQ(d.count, 0) << s.name << " " << spec << ": " << d.first;
    }
  }
}

TEST(Legitimacy, AgreesWithOracleAfterBulkAndExternalWrites) {
  for (const std::string& spec : kTopologies) {
    const Graph g = topology(spec);
    for (Subject& s : allSubjects(g)) {
      Protocol& p = *s.protocol;
      Disagreements d;
      Rng rng(99);
      // randomize and setRawConfiguration: whole-configuration writes.
      for (int k = 0; k < 6; ++k) {
        p.randomize(rng);
        d.note(s.compare(), "randomize " + std::to_string(k));
        const int pick = rng.below(static_cast<int>(s.orbit.size()));
        p.setRawConfiguration(s.orbit[static_cast<std::size_t>(pick)]);
        d.note(s.compare(), "setRawConfiguration " + std::to_string(k));
      }
      // Delta decodes along the orbit (consecutive walk configurations
      // differ in one processor) and to one- and two-node corruptions of
      // each: one decodeNode per processor whose code changed, the writes
      // the model checker's StateCodec::decodeDelta issues.
      std::vector<std::vector<std::uint64_t>> orbitCodes;
      for (const std::vector<int>& config : s.orbit) {
        p.setRawConfiguration(config);
        orbitCodes.push_back(p.encodeConfiguration());
      }
      std::vector<std::uint64_t> prev = orbitCodes.front();
      p.decodeConfiguration(prev);
      const auto decodeDelta = [&](const std::vector<std::uint64_t>& codes) {
        for (NodeId v = 0; v < g.nodeCount(); ++v) {
          const auto i = static_cast<std::size_t>(v);
          if (codes[i] == prev[i]) continue;
          p.decodeNode(v, codes[i]);
          prev[i] = codes[i];
        }
      };
      for (std::vector<std::uint64_t> codes : orbitCodes) {
        decodeDelta(codes);
        d.note(s.compare(), "delta decode onto the orbit");
        for (int k = 0; k < 2; ++k) {
          const NodeId v = rng.below(g.nodeCount());
          const auto draw = static_cast<std::uint64_t>(rng.below(1 << 20));
          codes[static_cast<std::size_t>(v)] = draw % p.localStateCount(v);
          decodeDelta(codes);
          d.note(s.compare(), "delta decode, corruption " + std::to_string(k));
        }
      }
      // FaultInjector corruptions and crash resets of legitimate
      // configurations.
      FaultInjector inj(p);
      for (std::size_t i = 0; i < s.orbit.size(); i += 3) {
        p.setRawConfiguration(s.orbit[i]);
        d.note(s.compare(), "before faults");
        (void)inj.corruptK(1 + static_cast<int>(i % 3), rng);
        d.note(s.compare(), "corruptK");
        p.setRawConfiguration(s.orbit[i]);
        inj.crashReset(static_cast<NodeId>(i) % g.nodeCount());
        d.note(s.compare(), "crashReset");
      }
      // The searching daemon scores candidates by executing them and
      // undoing them: single-node raw restores, and with lookahead the
      // whole-configuration arena restore.
      for (const auto& [lookahead, budget] :
           {std::pair{0, 150}, std::pair{1, 40}}) {
        p.randomize(rng);
        resil::SearchingDaemon daemon(p, lookahead);
        Simulator sim(p, daemon, rng);
        long step = 0;
        (void)sim.runUntil(
            [&] {
              d.note(s.compare(), "search step " + std::to_string(step++));
              return s.legitimate();
            },
            budget);
      }
      EXPECT_EQ(d.count, 0) << s.name << " " << spec << ": " << d.first;
    }
  }
}

TEST(Legitimacy, ChecksLeaveConfigurationAndDirtySetUnchanged) {
  for (const char* spec : {"ring:8", "grid:3x3"}) {
    const Graph g = topology(spec);
    for (Subject& s : allSubjects(g)) {
      Protocol& p = *s.protocol;
      EnabledCache cache(p);
      Rng rng(5);
      for (int k = 0; k < 3; ++k) {
        // The first round builds the index; later ones check a random
        // configuration and then a legitimate one.
        if (k == 1)
          p.randomize(rng);
        else if (k == 2)
          p.setRawConfiguration(s.orbit.back());
        (void)cache.refreshView();
        ASSERT_FALSE(p.hasDirtyState());
        const std::vector<int> before = p.rawConfiguration();
        const std::uint64_t steps = counter("sim_steps_total");
        const std::uint64_t moves = counter("sim_moves_total");
        EXPECT_EQ(s.compare(), "") << s.name << " " << spec;
        EXPECT_EQ(p.rawConfiguration(), before) << s.name << " " << spec;
        EXPECT_FALSE(p.hasDirtyState()) << s.name << " " << spec;
        // The index build steps a scratch instance, never a Simulator.
        EXPECT_EQ(counter("sim_steps_total"), steps) << s.name << " " << spec;
        EXPECT_EQ(counter("sim_moves_total"), moves) << s.name << " " << spec;
      }
    }
  }
}

/// Everything a run reports: per-phase stats, the moves, and the
/// post-step status feed.
struct RunRecord {
  std::vector<StepCount> stats;
  std::vector<Move> moves;
  std::vector<std::pair<bool, std::vector<NodeId>>> feed;

  bool operator==(const RunRecord&) const = default;
};

template <class P>
RunRecord recordRun(const Graph& g, DaemonKind kind, bool indexFirst) {
  P protocol(g);
  if (indexFirst) {
    if constexpr (!std::is_same_v<P, Dftc>)
      (void)protocol.substrateLegitimate();
    (void)protocol.isLegitimate();
  }
  Rng rng(77);
  protocol.randomize(rng);
  auto daemon = makeDaemon(kind);
  Simulator sim(protocol, *daemon, rng);
  RunRecord r;
  sim.setMoveObserver([&r](const Move& m) { r.moves.push_back(m); });
  sim.setStatusObserver(
      [&r](std::span<const NodeId> changed, bool full, const EnabledView&) {
        r.feed.emplace_back(
            full, std::vector<NodeId>(changed.begin(), changed.end()));
      });
  std::vector<std::function<bool()>> phases;
  if constexpr (!std::is_same_v<P, Dftc>)
    phases.push_back([&protocol] { return protocol.substrateLegitimate(); });
  phases.push_back([&protocol] { return protocol.isLegitimate(); });
  for (const auto& goal : phases) {
    const RunStats st = sim.runUntil(goal, 1'000'000);
    EXPECT_TRUE(st.converged);
    r.stats.insert(r.stats.end(), {st.moves, st.steps, st.rounds});
  }
  return r;
}

TEST(Legitimacy, IndexBuiltBeforeOrAtFirstCheckRunsIdentically) {
  for (const char* spec : {"ring:12", "grid:4x4"}) {
    const Graph g = topology(spec);
    for (const DaemonKind kind :
         {DaemonKind::kCentral, DaemonKind::kDistributed,
          DaemonKind::kSynchronous}) {
      const std::string label = std::string(spec) + " " + daemonKindName(kind);
      EXPECT_EQ(recordRun<Dftc>(g, kind, true),
                recordRun<Dftc>(g, kind, false))
          << "dftc " << label;
      EXPECT_EQ(recordRun<Dftno>(g, kind, true),
                recordRun<Dftno>(g, kind, false))
          << "dftno " << label;
      EXPECT_EQ(recordRun<Stno>(g, kind, true),
                recordRun<Stno>(g, kind, false))
          << "stno " << label;
    }
  }
}

TEST(Legitimacy, LegitimateSetsKeepTheirShape) {
  // DESIGN.md "Legitimate sets": L_TC is the whole walk from the clean
  // reset, its pre-cycle prefix included; L_NO is the cycle only.
  const Graph g = Graph::ring(160);
  Dftc dftc(g);
  EXPECT_EQ(dftc.orbitIndex().positions(), 798u);
  EXPECT_EQ(dftc.orbitIndex().cycleStart(), 160u);
  EXPECT_EQ(dftc.orbitIndex().memberCount(), 798u);
  Dftno dftno(g);
  EXPECT_EQ(dftno.orbitIndex().positions(), 1275u);
  EXPECT_EQ(dftno.orbitIndex().cycleStart(), 637u);
  EXPECT_EQ(dftno.orbitIndex().memberCount(), 638u);
  // The same shapes from the oracle's walk on a smaller ring.
  const Graph small = Graph::ring(12);
  const oracle::Orbit ltc = oracle::dftcOrbit(small);
  const oracle::Orbit lno =
      oracle::dftnoOrbit(small, EdgeLabelGuard::kContinuous);
  Dftc smallDftc(small);
  Dftno smallDftno(small);
  EXPECT_EQ(smallDftc.orbitIndex().memberCount(), ltc.members.size());
  EXPECT_EQ(smallDftc.orbitIndex().cycleStart(), ltc.cycleStart);
  EXPECT_EQ(smallDftno.orbitIndex().memberCount(), lno.members.size());
  EXPECT_EQ(smallDftno.orbitIndex().cycleStart(), lno.cycleStart);
}

TEST(Legitimacy, OrbitIndexTimelinesMatchTheOracleWalk) {
  // Exactness rests on OrbitIndex::matches (fingerprint hits are only
  // candidates), so compare it with the oracle's walk directly: with the
  // live protocol at walk configuration i, processor p matches position j
  // iff its raw state is the same in configurations i and j.
  for (const std::string& spec : kTopologies) {
    const Graph g = topology(spec);
    Dftno dftno(g);
    const OrbitIndex& index = dftno.orbitIndex();
    const oracle::Orbit walk =
        oracle::dftnoOrbit(g, EdgeLabelGuard::kContinuous);
    ASSERT_EQ(index.positions(), walk.sequence.size()) << spec;
    ASSERT_EQ(index.cycleStart(), walk.cycleStart) << spec;
    const std::span<StateArena* const> arenas = dftno.arenas();
    // offset[p] .. offset[p + 1]: processor p's slice of a raw config.
    std::vector<long> offset(1, 0);
    for (NodeId p = 0; p < g.nodeCount(); ++p)
      offset.push_back(offset.back() +
                       static_cast<long>(dftno.rawNodeLength(p)));
    const auto state = [&](std::size_t pos, NodeId p) {
      const auto from = walk.sequence[pos].begin();
      const auto i = static_cast<std::size_t>(p);
      return std::vector<int>(from + offset[i], from + offset[i + 1]);
    };
    int mismatches = 0;
    for (std::size_t i = 0; i < walk.sequence.size(); ++i) {
      dftno.setRawConfiguration(walk.sequence[i]);
      for (std::size_t j = 0; j < walk.sequence.size(); ++j)
        for (NodeId p = 0; p < g.nodeCount(); ++p)
          mismatches +=
              index.matches(arenas, p, j) != (state(i, p) == state(j, p));
    }
    EXPECT_EQ(mismatches, 0) << spec;
  }
}

TEST(Legitimacy, ConvergingDftnoTrialPaysOneResyncAndOneConfirmPerPhase) {
  for (const DaemonKind kind :
       {DaemonKind::kCentral, DaemonKind::kRoundRobin}) {
    const Graph g = topology("ring:24");
    Dftno dftno(g);
    Rng rng(3);
    dftno.randomize(rng);
    auto daemon = makeDaemon(kind);
    Simulator sim(dftno, *daemon, rng);
    const std::uint64_t resyncs0 = counter("legit_resyncs_total");
    const std::uint64_t confirms0 = counter("legit_confirms_total");
    const RunStats s1 = sim.runUntil(
        [&dftno] { return dftno.substrateLegitimate(); }, 1'000'000);
    const std::uint64_t confirms1 = counter("legit_confirms_total");
    const RunStats s2 =
        sim.runUntil([&dftno] { return dftno.isLegitimate(); }, 1'000'000);
    ASSERT_TRUE(s1.converged && s2.converged);
    ASSERT_GT(s1.moves, 0);
    EXPECT_EQ(counter("legit_resyncs_total") - resyncs0, 1u);
    EXPECT_EQ(confirms1 - confirms0, 1u);
    EXPECT_LE(counter("legit_confirms_total") - confirms1, 1u);
  }
}

TEST(Legitimacy, StnoTrialPaysOneResync) {
  const Graph g = topology("grid:6x6");
  Stno stno(g);
  Rng rng(8);
  stno.randomize(rng);
  auto daemon = makeDaemon(DaemonKind::kCentral);
  Simulator sim(stno, *daemon, rng);
  const std::uint64_t resyncs0 = counter("legit_resyncs_total");
  ASSERT_TRUE(
      sim.runUntil([&stno] { return stno.substrateLegitimate(); }, 1'000'000)
          .converged);
  ASSERT_TRUE(sim.runUntil([&stno] { return stno.isLegitimate(); }, 1'000'000)
                  .converged);
  EXPECT_EQ(counter("legit_resyncs_total") - resyncs0, 1u);
}

}  // namespace
}  // namespace ssno
