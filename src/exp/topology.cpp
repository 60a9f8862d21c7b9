#include "exp/topology.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include "exp/fmt.hpp"
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/rng.hpp"

namespace ssno::exp {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("TopologySpec: " + what);
}

void require(bool ok, const std::string& what) {
  if (!ok) bad(what);
}

int parseInt(const std::string& s, const std::string& ctx) {
  std::size_t pos = 0;
  int v = 0;
  try {
    v = std::stoi(s, &pos);
  } catch (const std::exception&) {
    bad("expected integer in '" + ctx + "'");
  }
  if (pos != s.size()) bad("trailing junk in '" + ctx + "'");
  return v;
}

std::uint64_t parseU64(const std::string& s, const std::string& ctx) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size())
    bad("expected unsigned integer in '" + ctx + "'");
  return v;
}

double parseDouble(const std::string& s, const std::string& ctx) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    bad("expected number in '" + ctx + "'");
  }
  if (pos != s.size()) bad("trailing junk in '" + ctx + "'");
  return v;
}

std::vector<std::string> splitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, sep)) parts.push_back(cur);
  if (!s.empty() && s.back() == sep) parts.emplace_back();
  return parts;
}

/// "RxC" as two ints, or a single perfect square "N" as sqrt(N)² sides.
std::pair<int, int> parseDims(const std::string& s, const std::string& ctx) {
  const auto x = s.find('x');
  if (x != std::string::npos) {
    return {parseInt(s.substr(0, x), ctx), parseInt(s.substr(x + 1), ctx)};
  }
  const int n = parseInt(s, ctx);
  if (n < 0) bad("'" + ctx + "': negative size " + s);
  const int side = static_cast<int>(std::lround(std::sqrt(n)));
  if (side * side != n)
    bad("'" + ctx + "': " + s + " is not RxC and not a perfect square");
  return {side, side};
}

void validateChordalRing(int n, const std::vector<int>& chords) {
  require(n >= 3, "chordring needs n >= 3");
  require(!chords.empty(), "chordring needs at least one chord offset");
  for (int c : chords)
    require(c >= 2 && c <= n - 2,
            "chord offset " + std::to_string(c) + " outside 2..n-2");
}

}  // namespace

Graph chordalRing(int n, const std::vector<int>& chords) {
  validateChordalRing(n, chords);
  std::set<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < n; ++i) edges.insert(std::minmax(i, (i + 1) % n));
  for (int c : chords)
    for (int i = 0; i < n; ++i) edges.insert(std::minmax(i, (i + c) % n));
  return Graph(n, {edges.begin(), edges.end()});
}

namespace {

void validateDRegular(int n, int d) {
  require(n >= 2, "dreg needs n >= 2");
  require(d >= 1 && d < n, "dreg needs 1 <= d < n");
  require((static_cast<long long>(n) * d) % 2 == 0, "dreg needs n*d even");
  // d == 1 is a perfect matching: connected only as a single edge.
  require(d >= 2 || n == 2, "dreg with d=1 is disconnected unless n=2");
}

void validatePowerLawTree(int n, double alpha) {
  require(n >= 2, "plaw needs n >= 2");
  require(alpha >= 0.0 && alpha <= 8.0, "plaw needs 0 <= alpha <= 8");
  // Attachment uses a linear weight scan per node: O(n^2) total.
  require(n <= 20'000, "plaw needs n <= 20000");
}

}  // namespace

Graph dRegularRandom(int n, int d, std::uint64_t seed) {
  validateDRegular(n, d);
  // Deterministic circulant base: offsets 1..d/2, plus the diameter
  // matching when d is odd (n is even then, since n*d is even).
  std::set<std::pair<NodeId, NodeId>> present;
  std::vector<std::pair<NodeId, NodeId>> edges;
  auto addEdge = [&](int u, int v) {
    const auto e = std::minmax(u, v);
    if (present.insert(e).second) edges.push_back(e);
  };
  for (int k = 1; k <= d / 2; ++k)
    for (int i = 0; i < n; ++i) addEdge(i, (i + k) % n);
  if (d % 2 == 1)
    for (int i = 0; i < n / 2; ++i) addEdge(i, i + n / 2);

  // Degree-preserving randomization: double-edge swaps
  // {a,b},{c,e} -> {a,c},{b,e} on four distinct, non-adjacent-after
  // endpoints.  The edge *set* is what matters; ports are canonicalized
  // by the final sort.
  Rng rng(seed);
  auto swapEdges = [&](std::size_t i, std::size_t j, bool flip) {
    auto [a, b] = edges[i];
    auto [c, e] = edges[j];
    if (flip) std::swap(c, e);
    if (a == c || a == e || b == c || b == e) return;
    if (present.contains(std::minmax(a, c)) ||
        present.contains(std::minmax(b, e)))
      return;
    present.erase(edges[i]);
    present.erase(edges[j]);
    edges[i] = std::minmax(a, c);
    edges[j] = std::minmax(b, e);
    present.insert(edges[i]);
    present.insert(edges[j]);
  };
  const long long mixing = 8LL * static_cast<long long>(edges.size());
  for (long long t = 0; t < mixing; ++t) {
    const auto i = static_cast<std::size_t>(
        rng.below(static_cast<int>(edges.size())));
    const auto j = static_cast<std::size_t>(
        rng.below(static_cast<int>(edges.size())));
    if (i == j) continue;
    swapEdges(i, j, rng.chance(0.5));
  }

  // Connectivity repair: swap a cycle (non-bridge) edge of one
  // component with a cycle edge of another — both components are
  // d-regular (d >= 2), so each contains a cycle; the cross swap keeps
  // degrees, introduces two bridging edges, and removes no cut edge,
  // merging exactly two components per iteration.
  auto componentsOf = [&](std::vector<int>& comp) {
    comp.assign(static_cast<std::size_t>(n), -1);
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    for (const auto& [u, v] : edges) {
      adj[static_cast<std::size_t>(u)].push_back(v);
      adj[static_cast<std::size_t>(v)].push_back(u);
    }
    int count = 0;
    std::vector<int> stack;
    for (int s = 0; s < n; ++s) {
      if (comp[static_cast<std::size_t>(s)] != -1) continue;
      stack.assign(1, s);
      comp[static_cast<std::size_t>(s)] = count;
      while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (int v : adj[static_cast<std::size_t>(u)]) {
          if (comp[static_cast<std::size_t>(v)] == -1) {
            comp[static_cast<std::size_t>(v)] = count;
            stack.push_back(v);
          }
        }
      }
      ++count;
    }
    return count;
  };
  /// First (deterministic) edge of component `target` that lies on a
  /// cycle: a DFS back edge.  Exists because the component is d-regular
  /// with d >= 2.
  auto cycleEdgeIn = [&](const std::vector<int>& comp,
                         int target) -> std::pair<int, int> {
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    for (const auto& [u, v] : edges) {
      if (comp[static_cast<std::size_t>(u)] != target) continue;
      adj[static_cast<std::size_t>(u)].push_back(v);
      adj[static_cast<std::size_t>(v)].push_back(u);
    }
    int root = -1;
    for (int s = 0; s < n && root < 0; ++s)
      if (comp[static_cast<std::size_t>(s)] == target) root = s;
    std::vector<int> parent(static_cast<std::size_t>(n), -2);
    std::vector<std::pair<int, int>> stack{{root, -1}};
    parent[static_cast<std::size_t>(root)] = -1;
    while (!stack.empty()) {
      const auto [u, from] = stack.back();
      stack.pop_back();
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (v == from) continue;
        if (parent[static_cast<std::size_t>(v)] != -2)
          return std::minmax(u, v);  // back edge: lies on a cycle
        parent[static_cast<std::size_t>(v)] = u;
        stack.push_back({v, u});
      }
    }
    bad("dreg internal error: no cycle edge in a d>=2-regular component");
  };
  std::vector<int> comp;
  while (d >= 2 && componentsOf(comp) > 1) {
    const std::pair<int, int> e1 = cycleEdgeIn(comp, 0);
    const std::pair<int, int> e2 =
        cycleEdgeIn(comp, comp[static_cast<std::size_t>(e1.first)] == 0
                              ? 1
                              : 0);
    present.erase(e1);
    present.erase(e2);
    edges.erase(std::find(edges.begin(), edges.end(), e1));
    edges.erase(std::find(edges.begin(), edges.end(), e2));
    addEdge(e1.first, e2.first);
    addEdge(e1.second, e2.second);
  }

  return Graph(n, {present.begin(), present.end()});
}

Graph powerLawTree(int n, double alpha, std::uint64_t seed) {
  validatePowerLawTree(n, alpha);
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  std::vector<double> weight(static_cast<std::size_t>(n), 0.0);
  for (int t = 1; t < n; ++t) {
    double total = 0;
    for (int v = 0; v < t; ++v) {
      weight[static_cast<std::size_t>(v)] =
          std::pow(std::max(deg[static_cast<std::size_t>(v)], 1), alpha);
      total += weight[static_cast<std::size_t>(v)];
    }
    // 53-bit uniform draw in [0, total).
    const double u =
        static_cast<double>(rng.next() >> 11) * (1.0 / 9007199254740992.0);
    double x = u * total;
    int chosen = t - 1;
    for (int v = 0; v < t; ++v) {
      x -= weight[static_cast<std::size_t>(v)];
      if (x < 0) {
        chosen = v;
        break;
      }
    }
    edges.emplace_back(chosen, t);
    ++deg[static_cast<std::size_t>(chosen)];
    ++deg[static_cast<std::size_t>(t)];
  }
  return Graph(n, edges);
}

std::string TopologySpec::name() const {
  std::ostringstream out;
  switch (family) {
    case TopologyFamily::kRing: out << "ring:" << a; break;
    case TopologyFamily::kPath: out << "path:" << a; break;
    case TopologyFamily::kStar: out << "star:" << a; break;
    case TopologyFamily::kComplete: out << "complete:" << a; break;
    case TopologyFamily::kGrid: out << "grid:" << a << 'x' << b; break;
    case TopologyFamily::kTorus: out << "torus:" << a << 'x' << b; break;
    case TopologyFamily::kHypercube: out << "hypercube:" << a; break;
    case TopologyFamily::kLollipop: out << "lollipop:" << a << 'x' << b; break;
    case TopologyFamily::kKAryTree: out << "kary:" << a << 'x' << b; break;
    case TopologyFamily::kCaterpillar:
      out << "caterpillar:" << a << 'x' << b;
      break;
    case TopologyFamily::kRandomTree: out << "rtree:" << a << ':' << seed; break;
    case TopologyFamily::kRandomConnected:
      out << "er:" << a << ':' << shortestDouble(p) << ':' << seed;
      break;
    case TopologyFamily::kChordalRing: {
      out << "chordring:" << a << ':';
      for (std::size_t i = 0; i < chords.size(); ++i) {
        if (i) out << ',';
        out << chords[i];
      }
      break;
    }
    case TopologyFamily::kDRegularRandom:
      out << "dreg:" << a << ':' << b << ':' << seed;
      break;
    case TopologyFamily::kPowerLawTree:
      out << "plaw:" << a << ':' << shortestDouble(p) << ':' << seed;
      break;
  }
  return out.str();
}

void TopologySpec::validate() const {
  // Every family needs n >= 2: the protocols are defined on rooted
  // networks with at least one link and reject smaller graphs.
  // Simulator-scale sanity caps: a spec comes from user input, and an
  // absurd size must fail fast instead of allocating tens of GB.
  constexpr long long kMaxNodes = 1'000'000;
  constexpr long long kMaxEdges = 8'000'000;
  const auto requireScale = [](long long nodes, long long edges) {
    require(nodes <= kMaxNodes,
            "too large: " + std::to_string(nodes) + " nodes (cap " +
                std::to_string(kMaxNodes) + ")");
    require(edges <= kMaxEdges,
            "too large: " + std::to_string(edges) + " edges (cap " +
                std::to_string(kMaxEdges) + ")");
  };
  const long long la = a, lb = b;
  switch (family) {
    case TopologyFamily::kRing:
      require(a >= 3, "ring needs n >= 3");
      requireScale(la, la);
      return;
    case TopologyFamily::kPath:
      require(a >= 2, "path needs n >= 2");
      requireScale(la, la);
      return;
    case TopologyFamily::kStar:
      require(a >= 2, "star needs n >= 2");
      requireScale(la, la);
      return;
    case TopologyFamily::kComplete:
      require(a >= 2, "complete needs n >= 2");
      requireScale(la, la * (la - 1) / 2);
      return;
    case TopologyFamily::kGrid:
      // long long arithmetic: user-supplied dimensions must not overflow.
      require(a >= 1 && b >= 1 && la * lb >= 2, "grid needs rows*cols >= 2");
      requireScale(la * lb, 2 * la * lb);
      return;
    case TopologyFamily::kTorus:
      require(a >= 3 && b >= 3, "torus needs rows,cols >= 3");
      requireScale(la * lb, 2 * la * lb);
      return;
    case TopologyFamily::kHypercube:
      require(a >= 1 && a <= 20, "hypercube needs 1 <= dim <= 20");
      return;
    case TopologyFamily::kLollipop:
      require(a >= 2 && b >= 1, "lollipop needs clique >= 2, tail >= 1");
      requireScale(la + lb, la * (la - 1) / 2 + lb);
      return;
    case TopologyFamily::kKAryTree:
      require(a >= 2 && b >= 1, "kary needs n >= 2, k >= 1");
      requireScale(la, la);
      return;
    case TopologyFamily::kCaterpillar:
      require(a >= 1 && b >= 0 && la + la * lb >= 2,
              "caterpillar needs spine >= 1, legs >= 0, >= 2 nodes");
      requireScale(la + la * lb, la + la * lb);
      return;
    case TopologyFamily::kRandomTree:
      require(a >= 2, "rtree needs n >= 2");
      requireScale(la, la);
      return;
    case TopologyFamily::kRandomConnected:
      require(a >= 2, "er needs n >= 2");
      require(p >= 0.0 && p <= 1.0, "er needs 0 <= p <= 1");
      // randomConnected scans all O(n^2) node pairs.
      require(a <= 20'000, "er needs n <= 20000");
      return;
    case TopologyFamily::kChordalRing:
      validateChordalRing(a, chords);
      requireScale(la, la * (1 + static_cast<long long>(chords.size())));
      return;
    case TopologyFamily::kDRegularRandom:
      validateDRegular(a, b);
      requireScale(la, la * lb / 2);
      return;
    case TopologyFamily::kPowerLawTree:
      validatePowerLawTree(a, p);
      requireScale(la, la);
      return;
  }
  bad("unknown family");
}

Graph TopologySpec::build() const {
  validate();
  switch (family) {
    case TopologyFamily::kRing: return Graph::ring(a);
    case TopologyFamily::kPath: return Graph::path(a);
    case TopologyFamily::kStar: return Graph::star(a);
    case TopologyFamily::kComplete: return Graph::complete(a);
    case TopologyFamily::kGrid: return Graph::grid(a, b);
    case TopologyFamily::kTorus: return Graph::torus(a, b);
    case TopologyFamily::kHypercube: return Graph::hypercube(a);
    case TopologyFamily::kLollipop: return Graph::lollipop(a, b);
    case TopologyFamily::kKAryTree: return Graph::kAryTree(a, b);
    case TopologyFamily::kCaterpillar: return Graph::caterpillar(a, b);
    case TopologyFamily::kRandomTree: {
      Rng rng(seed);
      return Graph::randomTree(a, rng);
    }
    case TopologyFamily::kRandomConnected: {
      Rng rng(seed);
      return Graph::randomConnected(a, p, rng);
    }
    case TopologyFamily::kChordalRing: return chordalRing(a, chords);
    case TopologyFamily::kDRegularRandom: return dRegularRandom(a, b, seed);
    case TopologyFamily::kPowerLawTree: return powerLawTree(a, p, seed);
  }
  bad("unknown family");
}

TopologySpec TopologySpec::parse(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos || colon + 1 == text.size())
    bad("expected 'family:params', got '" + text + "'");
  const std::string fam = text.substr(0, colon);
  const std::vector<std::string> args = splitOn(text.substr(colon + 1), ':');

  TopologySpec spec;
  auto oneInt = [&](TopologyFamily f) {
    require(args.size() == 1, fam + " takes exactly one parameter");
    spec.family = f;
    spec.a = parseInt(args[0], text);
  };
  auto dims = [&](TopologyFamily f) {
    require(args.size() == 1, fam + " takes exactly one parameter");
    spec.family = f;
    std::tie(spec.a, spec.b) = parseDims(args[0], text);
  };
  if (fam == "ring") {
    oneInt(TopologyFamily::kRing);
  } else if (fam == "path") {
    oneInt(TopologyFamily::kPath);
  } else if (fam == "star") {
    oneInt(TopologyFamily::kStar);
  } else if (fam == "complete") {
    oneInt(TopologyFamily::kComplete);
  } else if (fam == "hypercube") {
    oneInt(TopologyFamily::kHypercube);
  } else if (fam == "grid") {
    dims(TopologyFamily::kGrid);
  } else if (fam == "torus") {
    dims(TopologyFamily::kTorus);
  } else if (fam == "kary") {
    dims(TopologyFamily::kKAryTree);
  } else if (fam == "caterpillar") {
    dims(TopologyFamily::kCaterpillar);
  } else if (fam == "lollipop") {
    dims(TopologyFamily::kLollipop);
  } else if (fam == "rtree") {
    require(args.size() == 1 || args.size() == 2,
            "rtree takes N or N:seed");
    spec.family = TopologyFamily::kRandomTree;
    spec.a = parseInt(args[0], text);
    if (args.size() == 2) spec.seed = parseU64(args[1], text);
  } else if (fam == "er") {
    require(args.size() == 2 || args.size() == 3, "er takes N:P or N:P:seed");
    spec.family = TopologyFamily::kRandomConnected;
    spec.a = parseInt(args[0], text);
    spec.p = parseDouble(args[1], text);
    if (args.size() == 3) spec.seed = parseU64(args[2], text);
  } else if (fam == "dreg") {
    require(args.size() == 2 || args.size() == 3,
            "dreg takes N:D or N:D:seed");
    spec.family = TopologyFamily::kDRegularRandom;
    spec.a = parseInt(args[0], text);
    spec.b = parseInt(args[1], text);
    if (args.size() == 3) spec.seed = parseU64(args[2], text);
  } else if (fam == "plaw") {
    require(args.size() == 2 || args.size() == 3,
            "plaw takes N:ALPHA or N:ALPHA:seed");
    spec.family = TopologyFamily::kPowerLawTree;
    spec.a = parseInt(args[0], text);
    spec.p = parseDouble(args[1], text);
    if (args.size() == 3) spec.seed = parseU64(args[2], text);
  } else if (fam == "chordring") {
    require(args.size() == 2, "chordring takes N:c1,c2,...");
    spec.family = TopologyFamily::kChordalRing;
    spec.a = parseInt(args[0], text);
    for (const std::string& c : splitOn(args[1], ','))
      spec.chords.push_back(parseInt(c, text));
  } else {
    bad("unknown family '" + fam + "'");
  }
  // Surface bad parameter domains at parse time, not first build.
  spec.validate();
  // One name per graph: offsets c and n − c give the same chords, and a
  // probability or exponent of −0 is 0.
  for (int& c : spec.chords) c = std::min(c, spec.a - c);
  std::sort(spec.chords.begin(), spec.chords.end());
  spec.chords.erase(std::unique(spec.chords.begin(), spec.chords.end()),
                    spec.chords.end());
  if (spec.p == 0.0) spec.p = 0.0;
  return spec;
}

}  // namespace ssno::exp
