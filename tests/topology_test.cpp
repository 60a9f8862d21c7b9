// Unit tests for the exp topology generators: counts, degree bounds,
// connectivity, the parse/name round-trip, and determinism of random
// families under a fixed seed.
#include "exp/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exp/canon.hpp"
#include "exp/scenario.hpp"

namespace ssno::exp {
namespace {

std::vector<std::vector<NodeId>> adjacency(const Graph& g) {
  std::vector<std::vector<NodeId>> adj;
  for (NodeId p = 0; p < g.nodeCount(); ++p)
    adj.emplace_back(g.neighbors(p).begin(), g.neighbors(p).end());
  return adj;
}

TEST(ChordalRing, CountsAndDegrees) {
  // 16 ring edges + 16 per chord offset (2 and 5 overlap neither each
  // other nor the ring).
  const Graph g = chordalRing(16, {2, 5});
  EXPECT_EQ(g.nodeCount(), 16);
  EXPECT_EQ(g.edgeCount(), 16 * 3);
  EXPECT_TRUE(g.isConnected());
  for (NodeId p = 0; p < 16; ++p) EXPECT_EQ(g.degree(p), 6);
}

TEST(ChordalRing, HalfwayChordDeduplicated) {
  // Offset n/2 produces each chord twice; only n/2 distinct edges remain.
  const Graph g = chordalRing(8, {4});
  EXPECT_EQ(g.edgeCount(), 8 + 4);
  for (NodeId p = 0; p < 8; ++p) EXPECT_EQ(g.degree(p), 3);
}

TEST(ChordalRing, ComplementaryOffsetsCoincide) {
  const Graph a = chordalRing(10, {3});
  const Graph b = chordalRing(10, {7});
  EXPECT_EQ(a.edgeCount(), b.edgeCount());
  EXPECT_EQ(a.edgeCount(), 20);
}

TEST(ChordalRing, RejectsBadOffsets) {
  EXPECT_THROW(chordalRing(8, {1}), std::invalid_argument);
  EXPECT_THROW(chordalRing(8, {7}), std::invalid_argument);
  EXPECT_THROW(chordalRing(8, {}), std::invalid_argument);
  EXPECT_THROW(chordalRing(2, {2}), std::invalid_argument);
}

TEST(TopologySpec, ParseBuildsExpectedSizes) {
  EXPECT_EQ(TopologySpec::parse("ring:32").build().nodeCount(), 32);
  EXPECT_EQ(TopologySpec::parse("path:7").build().edgeCount(), 6);
  EXPECT_EQ(TopologySpec::parse("star:9").build().maxDegree(), 8);
  EXPECT_EQ(TopologySpec::parse("complete:6").build().edgeCount(), 15);
  EXPECT_EQ(TopologySpec::parse("hypercube:4").build().nodeCount(), 16);
  EXPECT_EQ(TopologySpec::parse("grid:4x8").build().nodeCount(), 32);
  EXPECT_EQ(TopologySpec::parse("kary:15x2").build().edgeCount(), 14);
  EXPECT_EQ(TopologySpec::parse("caterpillar:5x3").build().nodeCount(), 20);
  EXPECT_EQ(TopologySpec::parse("lollipop:4x2").build().nodeCount(), 6);
  EXPECT_EQ(TopologySpec::parse("chordring:12:3").build().edgeCount(), 24);
}

TEST(TopologySpec, SquareShorthandForGridAndTorus) {
  const Graph torus = TopologySpec::parse("torus:16").build();
  EXPECT_EQ(torus.nodeCount(), 16);
  for (NodeId p = 0; p < 16; ++p) EXPECT_EQ(torus.degree(p), 4);
  EXPECT_EQ(TopologySpec::parse("grid:9").build().nodeCount(), 9);
}

TEST(DRegularRandom, DegreesConnectivityAndDeterminism) {
  for (const auto& [n, d] : {std::pair{8, 3}, {12, 4}, {20, 3}, {9, 4},
                             {6, 5}, {2, 1}}) {
    const Graph g = dRegularRandom(n, d, 42);
    EXPECT_EQ(g.nodeCount(), n) << n << "," << d;
    EXPECT_EQ(g.edgeCount(), n * d / 2) << n << "," << d;
    for (NodeId p = 0; p < n; ++p) EXPECT_EQ(g.degree(p), d) << n << "," << d;
    EXPECT_TRUE(g.isConnected()) << n << "," << d;
    EXPECT_EQ(adjacency(g), adjacency(dRegularRandom(n, d, 42)));
  }
  EXPECT_NE(adjacency(dRegularRandom(20, 3, 1)),
            adjacency(dRegularRandom(20, 3, 2)));
}

TEST(DRegularRandom, RejectsInfeasibleParameters) {
  EXPECT_THROW(dRegularRandom(7, 3, 0), std::invalid_argument);  // n*d odd
  EXPECT_THROW(dRegularRandom(4, 4, 0), std::invalid_argument);  // d >= n
  EXPECT_THROW(dRegularRandom(6, 1, 0), std::invalid_argument);  // matching
  EXPECT_THROW(dRegularRandom(1, 0, 0), std::invalid_argument);
}

TEST(PowerLawTree, IsATreeAndAlphaShapesDegrees) {
  const Graph g = powerLawTree(200, 1.0, 5);
  EXPECT_EQ(g.nodeCount(), 200);
  EXPECT_EQ(g.edgeCount(), 199);
  EXPECT_TRUE(g.isConnected());
  EXPECT_EQ(adjacency(g), adjacency(powerLawTree(200, 1.0, 5)));
  // Strong preferential attachment concentrates far more mass on the
  // biggest hub than uniform attachment (alpha = 0).
  const Graph hubby = powerLawTree(400, 3.0, 7);
  const Graph uniform = powerLawTree(400, 0.0, 7);
  EXPECT_GT(hubby.maxDegree(), uniform.maxDegree());
}

TEST(TopologySpec, AllFamiliesConnected) {
  for (const char* text :
       {"ring:11", "path:5", "star:6", "complete:5", "hypercube:3",
        "grid:3x5", "torus:3x4", "kary:13x3", "caterpillar:4x2",
        "lollipop:5x4", "rtree:30:9", "er:25:0.08:4", "chordring:15:2,6",
        "dreg:14:3:8", "plaw:25:1.5:3"}) {
    const Graph g = TopologySpec::parse(text).build();
    EXPECT_TRUE(g.isConnected()) << text;
    EXPECT_EQ(g.root(), 0) << text;
  }
}

TEST(TopologySpec, NameRoundTrips) {
  for (const char* text :
       {"ring:32", "grid:4x8", "torus:5x5", "kary:40x3", "rtree:30:9",
        "er:25:0.08:4", "chordring:15:2,6", "dreg:16:4:9",
        "plaw:30:2.5:4"}) {
    const TopologySpec spec = TopologySpec::parse(text);
    EXPECT_EQ(TopologySpec::parse(spec.name()), spec) << text;
  }
}

TEST(TopologySpec, NameRoundTripsAwkwardProbability) {
  // 0.1 + 0.2 has no short decimal form; name() must still render a
  // string that parses back to the identical double (and thus graph).
  TopologySpec spec;
  spec.family = TopologyFamily::kRandomConnected;
  spec.a = 20;
  spec.p = 0.1 + 0.2;
  spec.seed = 11;
  const TopologySpec reparsed = TopologySpec::parse(spec.name());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(adjacency(reparsed.build()), adjacency(spec.build()));
}

// Specs that build the same graph parse to one spec and one name():
// chord offsets c and n − c give the same chords, repeats and order do
// not matter, and −0 is 0.  The result cache keys on the name.
TEST(TopologySpec, EquivalentSpecsShareOneCanonicalName) {
  const std::vector<std::vector<const char*>> classes = {
      {"chordring:10:2,3", "chordring:10:3,2", "chordring:10:2,3,3",
       "chordring:10:8,3", "chordring:10:7,8,2"},
      {"chordring:12:2,4", "chordring:12:4,2", "chordring:12:10,8"},
      {"chordring:16:2,5", "chordring:16:14,11,5"},
      {"er:10:-0", "er:10:0", "er:10:0.0:0"},
      {"plaw:100:-0", "plaw:100:0", "plaw:100:-0.0:0"},
  };
  for (const auto& cls : classes) {
    const TopologySpec first = TopologySpec::parse(cls.front());
    for (const char* text : cls) {
      const TopologySpec spec = TopologySpec::parse(text);
      EXPECT_EQ(spec, first) << text;
      EXPECT_EQ(spec.name(), first.name()) << text;
      EXPECT_EQ(TopologySpec::parse(spec.name()), spec) << text;
      EXPECT_EQ(adjacency(spec.build()), adjacency(first.build())) << text;
    }
  }
  // Already-canonical names are unchanged.
  for (const char* text :
       {"chordring:16:2,5", "chordring:12:2,4", "chordring:15:2,6",
        "er:10:0:0", "plaw:100:0:0"})
    EXPECT_EQ(TopologySpec::parse(text).name(), text);
  EXPECT_EQ(TopologySpec::parse("chordring:10:8,3,2").name(),
            "chordring:10:2,3");
  EXPECT_EQ(canonicalScenario(parseScenario("dftno/central/chordring:12:4,2")),
            canonicalScenario(parseScenario("dftno/central/chordring:12:2,4")));
}

TEST(TopologySpec, RandomFamiliesDeterministicUnderFixedSeed) {
  for (const char* text : {"rtree:40:123", "er:30:0.1:77"}) {
    const Graph a = TopologySpec::parse(text).build();
    const Graph b = TopologySpec::parse(text).build();
    EXPECT_EQ(adjacency(a), adjacency(b)) << text;
  }
}

TEST(TopologySpec, DifferentSeedsDifferentGraphs) {
  const Graph a = TopologySpec::parse("rtree:40:1").build();
  const Graph b = TopologySpec::parse("rtree:40:2").build();
  EXPECT_NE(adjacency(a), adjacency(b));
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  EXPECT_THROW(TopologySpec::parse("ring"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("ring:"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("ring:x"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("ring:2"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("bogus:5"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("grid:7"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("torus:2x9"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("er:10:1.5"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("chordring:8:1"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("rtree:10:5junk"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("rtree:10:-1"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("er:10:0.1:9x"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("dreg:7:3"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("dreg:8"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("plaw:10:9.5"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("plaw:10"), std::invalid_argument);
  // Absurd sizes are rejected up front, not attempted (no int overflow,
  // no multi-GB allocations).
  EXPECT_THROW(TopologySpec::parse("grid:65536x65536"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("grid:-9"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("complete:100000"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("er:100000:0.5"), std::invalid_argument);
}

TEST(TopologySpec, RejectsOneNodeGraphsInEveryFamily) {
  // Every protocol requires n >= 2; a one-node spec must fail at parse
  // time instead of aborting a protocol constructor.
  for (const char* text :
       {"path:1", "kary:1x3", "caterpillar:1x0", "rtree:1", "rtree:1:4",
        "plaw:1:1.5", "er:1:0.5", "er:1:0.5:3", "star:1", "complete:1",
        "grid:1x1", "dreg:1:0"}) {
    EXPECT_THROW(TopologySpec::parse(text), std::invalid_argument) << text;
  }
  // The two-node forms stay valid.
  for (const char* text : {"path:2", "kary:2x3", "caterpillar:1x1",
                           "caterpillar:2x0", "rtree:2", "plaw:2:1.5",
                           "er:2:0.5"}) {
    EXPECT_EQ(TopologySpec::parse(text).build().nodeCount(), 2) << text;
  }
}

}  // namespace
}  // namespace ssno::exp
