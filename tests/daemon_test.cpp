// Unit tests for the daemon implementations (paper §2.1.2 execution
// models): selection contracts, fairness, adversarial starvation, and
// move-for-move, draw-for-draw agreement of every bitmask-native daemon
// with its reference selection over the node-major move vector
// (tests/oracle/daemon_oracle.hpp).
#include "core/daemon.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "core/enabled_cache.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "oracle/daemon_oracle.hpp"
#include "orientation/dftno.hpp"
#include "toy_protocols.hpp"

namespace ssno {
namespace {

std::vector<Move> threeNodesEnabled() {
  return {Move{0, 0}, Move{0, 1}, Move{1, 0}, Move{2, 0}};
}

/// Drives a production daemon on a fixed enabled set through a real
/// EnabledCache view.
class FixedSet {
 public:
  explicit FixedSet(const std::vector<Move>& moves)
      : proto_(Graph::path(3), 2), cache_(proto_) {
    set(moves);
  }
  void set(const std::vector<Move>& moves) { proto_.setMoves(moves); }
  std::vector<Move> select(Daemon& d, Rng& rng) {
    std::vector<Move> out;
    d.selectInto(cache_.refreshView(), rng, out);
    return out;
  }

 private:
  FixedMovesProtocol proto_;
  EnabledCache cache_;
};

void expectSubsetOnePerNode(const std::vector<Move>& selected,
                            const std::vector<Move>& enabled) {
  ASSERT_FALSE(selected.empty());
  std::set<NodeId> nodes;
  for (const Move& m : selected) {
    EXPECT_TRUE(nodes.insert(m.node).second) << "two moves for one node";
    bool found = false;
    for (const Move& e : enabled) found = found || (e == m);
    EXPECT_TRUE(found) << "selected move was not enabled";
  }
}

TEST(CentralDaemon, SelectsExactlyOne) {
  CentralDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto sel = set.select(d, rng);
    EXPECT_EQ(sel.size(), 1u);
    expectSubsetOnePerNode(sel, threeNodesEnabled());
  }
}

TEST(CentralDaemon, EventuallySelectsEveryMove) {
  CentralDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(2);
  std::set<std::pair<NodeId, int>> seen;
  for (int i = 0; i < 400; ++i)
    for (const Move& m : set.select(d, rng))
      seen.insert({m.node, m.action});
  EXPECT_EQ(seen.size(), 4u);
}

TEST(DistributedDaemon, NonEmptySubsetOnePerNode) {
  DistributedDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(3);
  for (int i = 0; i < 100; ++i)
    expectSubsetOnePerNode(set.select(d, rng),
                           threeNodesEnabled());
}

TEST(DistributedDaemon, SometimesSelectsMultiple) {
  DistributedDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(4);
  bool sawMulti = false;
  for (int i = 0; i < 100; ++i)
    sawMulti = sawMulti || set.select(d, rng).size() > 1;
  EXPECT_TRUE(sawMulti);
}

TEST(SynchronousDaemon, SelectsEveryEnabledNode) {
  SynchronousDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(5);
  const auto sel = set.select(d, rng);
  EXPECT_EQ(sel.size(), 3u);  // nodes 0, 1, 2
  expectSubsetOnePerNode(sel, threeNodesEnabled());
}

TEST(RoundRobinDaemon, CyclesThroughActionPairs) {
  RoundRobinDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(6);
  std::vector<std::pair<NodeId, int>> order;
  for (int i = 0; i < 8; ++i) {
    const Move m = set.select(d, rng).front();
    order.emplace_back(m.node, m.action);
  }
  const std::vector<std::pair<NodeId, int>> want{
      {0, 0}, {0, 1}, {1, 0}, {2, 0}, {0, 0}, {0, 1}, {1, 0}, {2, 0}};
  EXPECT_EQ(order, want);
}

TEST(RoundRobinDaemon, IsWeaklyFairAtActionGranularity) {
  // Every continuously enabled (node, action) pair is served within one
  // sweep — in particular node 0's SECOND action is not starved by its
  // first one.
  RoundRobinDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(7);
  std::map<std::pair<NodeId, int>, int> served;
  for (int i = 0; i < 32; ++i) {
    const Move m = set.select(d, rng).front();
    served[{m.node, m.action}]++;
  }
  EXPECT_EQ((served[{0, 0}]), 8);
  EXPECT_EQ((served[{0, 1}]), 8);
  EXPECT_EQ((served[{1, 0}]), 8);
  EXPECT_EQ((served[{2, 0}]), 8);
}

TEST(RoundRobinDaemon, SkipsDisabledPairs) {
  RoundRobinDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(8);
  (void)set.select(d, rng);  // serves (0,0)
  // Now only node 2 is enabled: the rotation must jump to it.
  set.set({Move{2, 0}});
  const Move m = set.select(d, rng).front();
  EXPECT_EQ(m.node, 2);
}

TEST(AdversarialDaemon, StarvesHighNodesWhileLowEnabled) {
  AdversarialDaemon d;
  FixedSet set(threeNodesEnabled());
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const auto sel = set.select(d, rng);
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(sel.front().node, 0);  // node 2 never runs
    EXPECT_EQ(sel.front().action, 0);
  }
}

// Every daemon must produce the selection of its reference daemon — and
// consume the RNG identically — on the same enabled set: the production
// daemon reads the bitmask EnabledView, the reference scans the
// materialized node-major move vector.  Randomized DFTNO configurations
// give dense, multi-action enabled sets (up to 7 actions per node);
// evolving the configuration by the selected moves walks both through
// hundreds of distinct enabled sets per topology.
class ReferenceDaemonEquivalence
    : public ::testing::TestWithParam<DaemonKind> {};

TEST_P(ReferenceDaemonEquivalence, SelectionsAndDrawsMatchTheReference) {
  const DaemonKind kind = GetParam();
  Rng topoRng(0x5E1EC7);
  const std::vector<Graph> graphs = {
      Graph::ring(17), Graph::star(9), Graph::grid(4, 5),
      Graph::randomConnected(24, 0.2, topoRng)};
  for (const Graph& g : graphs) {
    Dftno proto(g);
    Rng scramble(0xD15C0 + static_cast<std::uint64_t>(g.nodeCount()));
    proto.randomize(scramble);
    EnabledCache cache(proto);

    const auto daemon = makeDaemon(kind);
    const auto reference = oracle::makeReferenceDaemon(kind);
    Rng viewRng(42), referenceRng(42);
    std::vector<Move> fromView, fromReference;
    for (int step = 0; step < 400; ++step) {
      const EnabledView& view = cache.refreshView();
      if (view.empty()) break;
      const std::vector<Move> scanned = proto.enabledMoves();
      daemon->selectInto(view, viewRng, fromView);
      reference->select(scanned, referenceRng, fromReference);
      ASSERT_EQ(fromView, fromReference)
          << daemonKindName(kind) << " diverged at step " << step << " (n="
          << g.nodeCount() << ")";
      ASSERT_TRUE(viewRng.engine() == referenceRng.engine())
          << daemonKindName(kind) << " consumed the RNG differently at step "
          << step;
      // Evolve by one of the selected moves (single execution keeps the
      // cache exact without simultaneous-step machinery).
      proto.execute(fromView.front().node, fromView.front().action);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDaemons, ReferenceDaemonEquivalence,
                         ::testing::Values(DaemonKind::kCentral,
                                           DaemonKind::kDistributed,
                                           DaemonKind::kSynchronous,
                                           DaemonKind::kRoundRobin,
                                           DaemonKind::kAdversarial),
                         [](const auto& info) {
                           std::string name = daemonKindName(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(MakeDaemon, CoversAllKinds) {
  for (DaemonKind k :
       {DaemonKind::kCentral, DaemonKind::kDistributed,
        DaemonKind::kSynchronous, DaemonKind::kRoundRobin,
        DaemonKind::kAdversarial}) {
    const auto d = makeDaemon(k);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name(), daemonKindName(k));
  }
}

}  // namespace
}  // namespace ssno
