// Unit tests for the rooted-network Graph and its topology builders,
// against the edge-by-edge reference construction in oracle/.
#include "core/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "core/rng.hpp"
#include "exp/topology.hpp"
#include "oracle/graph_oracle.hpp"

namespace ssno {
namespace {

/// Every CSR slot's reverse port leads back: q = neighborAt(p, l) reaches
/// p through backPort(p, l), which is also q's row-scanned port of p.
void expectBackPortsLeadBack(const Graph& g) {
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (Port l = 0; l < g.degree(p); ++l) {
      const NodeId q = g.neighborAt(p, l);
      ASSERT_EQ(g.neighborAt(q, g.backPort(p, l)), p) << p << ":" << l;
      ASSERT_EQ(g.backPort(p, l), g.portOf(q, p)) << p << ":" << l;
    }
  }
}

/// The std::invalid_argument message `build` throws, if any.
template <class Build>
std::optional<std::string> errorOf(Build&& build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

TEST(Graph, BasicConstruction) {
  const Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.nodeCount(), 3);
  EXPECT_EQ(g.edgeCount(), 2);
  EXPECT_EQ(g.root(), 0);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_FALSE(g.adjacent(0, 2));
  EXPECT_TRUE(g.isConnected());
}

TEST(Graph, PortNumberingFollowsInsertionOrder) {
  const Graph g(4, {{0, 2}, {0, 1}, {0, 3}});
  EXPECT_EQ(g.neighborAt(0, 0), 2);
  EXPECT_EQ(g.neighborAt(0, 1), 1);
  EXPECT_EQ(g.neighborAt(0, 2), 3);
  EXPECT_EQ(g.portOf(0, 1), 1);
  EXPECT_EQ(g.portOf(1, 0), 0);
  EXPECT_EQ(g.portOf(1, 2), kNoPort);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph(2, {{0, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph(2, {{0, 2}}), std::invalid_argument);
}

TEST(Graph, RejectsBadRoot) {
  EXPECT_THROW(Graph(2, {{0, 1}}, 5), std::invalid_argument);
}

TEST(Graph, DisconnectedDetected) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.isConnected());
}

// The CSR + reverse-port representation must agree everywhere with the
// reference construction: nested adjacency in edge insertion order and a
// directed-edge port map.
TEST(Graph, CsrMatchesReferenceAdjacency) {
  Rng rng(0xC5A);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + rng.below(40);
    // Random simple edge list (dedup via set), plus a spanning path so
    // degrees stay non-trivial.
    std::set<std::pair<NodeId, NodeId>> seen;
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int i = 0; i + 1 < n; ++i) {
      edges.emplace_back(i, i + 1);
      seen.insert({i, i + 1});
    }
    for (int tries = 0; tries < 3 * n; ++tries) {
      const NodeId u = rng.below(n);
      const NodeId v = rng.below(n);
      if (u == v) continue;
      const auto [lo, hi] = std::minmax(u, v);
      if (!seen.insert({lo, hi}).second) continue;
      edges.emplace_back(u, v);
    }
    const Graph g(n, edges);
    const oracle::ReferenceGraph ref(n, edges);

    ASSERT_EQ(g.edgeCount(), ref.edgeCount());
    int maxDeg = 0;
    for (NodeId p = 0; p < n; ++p) {
      const auto& nbrs = ref.neighbors(p);
      maxDeg = std::max(maxDeg, static_cast<int>(nbrs.size()));
      ASSERT_EQ(g.degree(p), static_cast<int>(nbrs.size()));
      const auto span = g.neighbors(p);
      ASSERT_EQ(span.size(), nbrs.size());
      for (Port l = 0; l < g.degree(p); ++l) {
        const NodeId q = g.neighborAt(p, l);
        EXPECT_EQ(q, nbrs[static_cast<std::size_t>(l)]);
        EXPECT_EQ(span[static_cast<std::size_t>(l)],
                  nbrs[static_cast<std::size_t>(l)]);
        // The reverse port: leads back to p, and is the oracle's port
        // of q toward p.
        EXPECT_EQ(g.neighborAt(q, g.backPort(p, l)), p);
        EXPECT_EQ(g.backPort(p, l), ref.portOf(q, p));
      }
      // portOf: row scan vs the oracle's directed-edge map, for every q.
      for (NodeId q = 0; q < n; ++q) {
        EXPECT_EQ(g.portOf(p, q), ref.portOf(p, q));
        EXPECT_EQ(g.adjacent(p, q), ref.portOf(p, q) != kNoPort);
      }
    }
    EXPECT_EQ(g.maxDegree(), maxDeg);
  }
}

// Random invalid edge lists — self-loops, duplicates in either
// orientation and far apart in the list, out-of-range and negative
// endpoints, several faults in one list — plus n <= 0 and bad roots:
// Graph throws exactly when the edge-by-edge oracle does, with its
// message, and otherwise builds the oracle's graph.
TEST(Graph, InvalidEdgeListsThrowExactlyAsTheOracle) {
  Rng rng(0xBAD);
  int thrown = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int nodes = 1 + rng.below(12);
    int n = nodes;  // a fault may set n <= 0
    std::set<std::pair<NodeId, NodeId>> seen;
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int tries = 0; tries < 2 * nodes; ++tries) {
      const NodeId u = rng.below(nodes);
      const NodeId v = rng.below(nodes);
      if (u != v && seen.insert(std::minmax(u, v)).second)
        edges.emplace_back(u, v);
    }
    const int faults = rng.below(4);  // 0: the list stays valid
    for (int f = 0; f < faults; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.below(static_cast<int>(edges.size()) + 1));
      const NodeId u = rng.below(nodes);
      const int kind = rng.below(6);
      switch (kind) {
        case 0:  // self-loop
          edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(at),
                       {u, u});
          break;
        case 1:  // duplicate, same orientation, appended far away
        case 2:  // duplicate, reversed
          if (!edges.empty()) {
            auto e = edges[static_cast<std::size_t>(
                rng.below(static_cast<int>(edges.size())))];
            if (kind == 2) std::swap(e.first, e.second);
            edges.push_back(e);
          }
          break;
        case 3:  // endpoint past the end
          edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(at),
                       {u, nodes + rng.below(3)});
          break;
        case 4:  // negative endpoint, either side
          edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(at),
                       rng.chance(0.5) ? std::pair{-1 - rng.below(3), u}
                                       : std::pair{u, kNoNode});
          break;
        default:  // n <= 0
          n = -rng.below(3);
          break;
      }
    }
    const NodeId root =
        rng.chance(0.1) ? (rng.chance(0.5) ? -1 : nodes + rng.below(2)) : 0;
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto want = errorOf([&] { oracle::ReferenceGraph(n, edges, root); });
    const auto got = errorOf([&] { Graph(n, edges, root); });
    ASSERT_EQ(got, want);
    if (want) {
      ++thrown;
      continue;
    }
    const Graph g(n, edges, root);
    const oracle::ReferenceGraph ref(n, edges, root);
    ASSERT_EQ(g.edgeCount(), ref.edgeCount());
    for (NodeId p = 0; p < n; ++p) {
      const auto row = g.neighbors(p);
      ASSERT_EQ(std::vector<NodeId>(row.begin(), row.end()), ref.neighbors(p));
    }
    expectBackPortsLeadBack(g);
  }
  // Both outcomes are exercised.
  EXPECT_GT(thrown, 100);
  EXPECT_LT(thrown, 380);
}

TEST(Graph, BackPortsLeadBackOnEveryBuilder) {
  Rng rng(0xB4C);
  for (const Graph& g :
       {Graph::ring(7), Graph::path(6), Graph::star(6), Graph::complete(6),
        Graph::grid(3, 4), Graph::torus(3, 5), Graph::hypercube(4),
        Graph::lollipop(4, 3), Graph::kAryTree(13, 3),
        Graph::caterpillar(4, 2), Graph::randomTree(30, rng),
        Graph::randomConnected(25, 0.2, rng), Graph::figure311(),
        Graph::figure221()})
    expectBackPortsLeadBack(g);
}

TEST(Graph, BackPortsLeadBackOnEveryTopologyFamily) {
  for (const char* text :
       {"ring:9", "path:6", "star:7", "complete:6", "grid:3x4", "torus:3x4",
        "hypercube:4", "lollipop:4x3", "kary:13x3", "caterpillar:4x2",
        "rtree:30:9", "er:25:0.2:4", "chordring:12:2,6", "chordring:10:3,7",
        "dreg:14:3:8", "plaw:25:1.5:3"}) {
    SCOPED_TRACE(text);
    expectBackPortsLeadBack(exp::TopologySpec::parse(text).build());
  }
}

TEST(GraphBuilders, Ring) {
  const Graph g = Graph::ring(5);
  EXPECT_EQ(g.nodeCount(), 5);
  EXPECT_EQ(g.edgeCount(), 5);
  EXPECT_TRUE(g.isConnected());
  for (NodeId p = 0; p < 5; ++p) EXPECT_EQ(g.degree(p), 2);
}

TEST(GraphBuilders, Path) {
  const Graph g = Graph::path(4);
  EXPECT_EQ(g.edgeCount(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 1);
}

TEST(GraphBuilders, Star) {
  const Graph g = Graph::star(6);
  EXPECT_EQ(g.degree(0), 5);
  for (NodeId p = 1; p < 6; ++p) EXPECT_EQ(g.degree(p), 1);
  EXPECT_EQ(g.maxDegree(), 5);
}

TEST(GraphBuilders, Complete) {
  const Graph g = Graph::complete(5);
  EXPECT_EQ(g.edgeCount(), 10);
  for (NodeId p = 0; p < 5; ++p) EXPECT_EQ(g.degree(p), 4);
}

TEST(GraphBuilders, Grid) {
  const Graph g = Graph::grid(3, 4);
  EXPECT_EQ(g.nodeCount(), 12);
  EXPECT_EQ(g.edgeCount(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(g.isConnected());
}

TEST(GraphBuilders, Torus) {
  const Graph g = Graph::torus(3, 3);
  EXPECT_EQ(g.nodeCount(), 9);
  EXPECT_EQ(g.edgeCount(), 18);
  for (NodeId p = 0; p < 9; ++p) EXPECT_EQ(g.degree(p), 4);
}

TEST(GraphBuilders, Hypercube) {
  const Graph g = Graph::hypercube(3);
  EXPECT_EQ(g.nodeCount(), 8);
  EXPECT_EQ(g.edgeCount(), 12);
  for (NodeId p = 0; p < 8; ++p) EXPECT_EQ(g.degree(p), 3);
}

TEST(GraphBuilders, Lollipop) {
  const Graph g = Graph::lollipop(4, 3);
  EXPECT_EQ(g.nodeCount(), 7);
  EXPECT_EQ(g.edgeCount(), 6 + 3);
  EXPECT_TRUE(g.isConnected());
  EXPECT_EQ(g.degree(6), 1);  // tail end
}

TEST(GraphBuilders, KAryTree) {
  const Graph g = Graph::kAryTree(7, 2);  // complete binary tree
  EXPECT_EQ(g.edgeCount(), 6);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.degree(3), 1);
}

TEST(GraphBuilders, Caterpillar) {
  const Graph g = Graph::caterpillar(3, 2);
  EXPECT_EQ(g.nodeCount(), 9);
  EXPECT_EQ(g.edgeCount(), 8);
  EXPECT_TRUE(g.isConnected());
}

TEST(GraphBuilders, RandomTreeIsSpanningTree) {
  Rng rng(42);
  for (int n : {1, 2, 3, 10, 50}) {
    const Graph g = Graph::randomTree(n, rng);
    EXPECT_EQ(g.nodeCount(), n);
    EXPECT_EQ(g.edgeCount(), n - 1);
    EXPECT_TRUE(g.isConnected());
  }
}

TEST(GraphBuilders, RandomConnectedIsConnected) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = Graph::randomConnected(20, 0.1, rng);
    EXPECT_TRUE(g.isConnected());
    EXPECT_GE(g.edgeCount(), 19);
  }
}

TEST(GraphBuilders, Figure311MatchesPaperTrace) {
  // r=0, a=1, b=2, c=3, d=4; DFS in port order must visit r,b,d,c then a.
  const Graph g = Graph::figure311();
  EXPECT_EQ(g.nodeCount(), 5);
  EXPECT_EQ(g.neighborAt(0, 0), 2);  // the root explores b before a
  EXPECT_EQ(g.neighborAt(0, 1), 1);
  EXPECT_TRUE(g.adjacent(2, 4));
  EXPECT_TRUE(g.adjacent(4, 3));
  EXPECT_TRUE(g.isConnected());
}

TEST(GraphBuilders, Figure221HasChord) {
  const Graph g = Graph::figure221();
  EXPECT_EQ(g.nodeCount(), 5);
  EXPECT_EQ(g.edgeCount(), 6);
  EXPECT_TRUE(g.adjacent(0, 2));
}

}  // namespace
}  // namespace ssno
