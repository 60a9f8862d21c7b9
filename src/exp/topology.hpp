// Topology generators for the experiment harness.
//
// A TopologySpec is a small value object that names a graph family plus
// its parameters (including the RNG seed for random families), so that a
// scenario is fully described by data: the same spec always builds the
// same Graph, bit for bit.  Specs round-trip through a compact text
// grammar used by scenario names and the exp_cli:
//
//   ring:N  path:N  star:N  complete:N  hypercube:D
//   grid:RxC | grid:N (perfect square)      torus:RxC | torus:N
//   kary:NxK  caterpillar:SPINExLEGS  lollipop:CLIQUExTAIL
//   rtree:N[:seed]          random Prüfer tree
//   er:N:P[:seed]           connected Erdős–Rényi G(n,p)
//   chordring:N:c1,c2,...   ring of N plus chords at the given offsets
//   dreg:N:D[:seed]         random connected Δ-regular graph (N·D even)
//   plaw:N:A[:seed]         power-law (preferential-attachment) tree,
//                           attachment weight ∝ degree^A
//
// build() validates parameter domains with std::invalid_argument (never
// aborting contract macros — specs come from user input) and guarantees
// the produced graph is connected.
#ifndef SSNO_EXP_TOPOLOGY_HPP
#define SSNO_EXP_TOPOLOGY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph.hpp"

namespace ssno::exp {

enum class TopologyFamily {
  kRing,
  kPath,
  kStar,
  kComplete,
  kGrid,
  kTorus,
  kHypercube,
  kLollipop,
  kKAryTree,
  kCaterpillar,
  kRandomTree,
  kRandomConnected,
  kChordalRing,
  kDRegularRandom,
  kPowerLawTree,
};

/// Ring of n nodes plus, for every offset c in `chords`, the chord edges
/// {i, (i+c) mod n}.  Offsets must lie in 2..n-2; duplicate edges arising
/// from complementary offsets (c and n-c) or c == n/2 are deduplicated.
[[nodiscard]] Graph chordalRing(int n, const std::vector<int>& chords);

/// Random connected d-regular graph on n nodes (n·d even; d >= 2 unless
/// n == 2).  Built deterministically from `seed`: a circulant base is
/// randomized by double-edge swaps (degree-preserving), then cross-
/// component swaps restore connectivity, so the result is always
/// d-regular, simple, and connected.
[[nodiscard]] Graph dRegularRandom(int n, int d, std::uint64_t seed);

/// Random preferential-attachment tree: node t attaches to an earlier
/// node with probability proportional to degree^alpha (alpha = 1 is the
/// classic Barabási–Albert tree; larger alpha concentrates hubs,
/// alpha = 0 is a uniform random recursive tree).
[[nodiscard]] Graph powerLawTree(int n, double alpha, std::uint64_t seed);

struct TopologySpec {
  TopologyFamily family = TopologyFamily::kRing;
  int a = 0;                ///< primary size (n, rows, dim, spine, clique)
  int b = 0;                ///< secondary size (cols, arity, legs, tail,
                            ///< degree for dreg)
  double p = 0.0;           ///< extra-edge probability (kRandomConnected)
                            ///< or attachment exponent (kPowerLawTree)
  std::vector<int> chords;  ///< chord offsets (kChordalRing)
  std::uint64_t seed = 0;   ///< generator seed (random families)

  /// Canonical text form; parse(name()) reproduces the spec exactly.
  [[nodiscard]] std::string name() const;

  /// Checks parameter domains without materializing the graph.
  /// Throws std::invalid_argument on a bad spec.
  void validate() const;

  /// Builds the graph, validating parameter domains first.
  /// Throws std::invalid_argument on a bad spec.  Postcondition: the
  /// result is connected and rooted at node 0.
  [[nodiscard]] Graph build() const;

  /// Parses the grammar above; throws std::invalid_argument on errors.
  /// Chord offsets are folded to min(c, n − c), sorted and deduplicated,
  /// and −0 reads as 0, so specs that build the same graph share a name().
  static TopologySpec parse(const std::string& text);

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

}  // namespace ssno::exp

#endif  // SSNO_EXP_TOPOLOGY_HPP
